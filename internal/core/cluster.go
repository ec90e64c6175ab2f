package core

// ClusterSpec parameterizes the cluster engine. Like PortfolioSpec it
// lives here so Request can carry it; the engine lives in
// internal/cluster, which imports this package. The JSON names are the
// submit body's (runs.SubmitRequest embeds the struct).
type ClusterSpec struct {
	// Workers are the worker base URLs ("http://host:port") that host
	// the chips. Required by the engine.
	Workers []string `json:"workers,omitempty"`
	// CheckpointEvery is the coordinated-checkpoint cadence in epochs —
	// the rollback point a worker loss recovers from.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// RPCTimeoutMS bounds one RPC attempt; MaxAttempts is the attempts
	// per RPC before a worker is declared dead and RetryBudget the
	// retries a whole run may spend.
	RPCTimeoutMS int `json:"rpcTimeoutMS,omitempty"`
	MaxAttempts  int `json:"maxAttempts,omitempty"`
	RetryBudget  int `json:"retryBudget,omitempty"`
	// Federate pulls the workers' span streams into the run's own event
	// stream, under one trace ID.
	Federate bool `json:"federate,omitempty"`
}

// set reports whether any field was given.
func (c *ClusterSpec) set() bool {
	return len(c.Workers) > 0 || c.CheckpointEvery != 0 || c.RPCTimeoutMS != 0 ||
		c.MaxAttempts != 0 || c.RetryBudget != 0 || c.Federate
}
