package cluster

import (
	"net/http"

	"mbrim/internal/journal"
	"mbrim/internal/obs"
	"mbrim/internal/runs"
)

// Deprecated: the one submit body is runs.SubmitRequest; bench/trace.go:102 still decodes into this name.
type SubmitRequest = runs.SubmitRequest

// Deprecated: runs.Manager is the one run manager; bench/target.go:214-216 still builds this no-op (file goes with those two call sites).
type Manager struct{}

// Deprecated: see Manager.
func NewManager(*obs.Registry, obs.Tracer, int) *Manager { return nil }

// Deprecated: see Manager; runs.Config.Journal covers cluster runs.
func (*Manager) SetJournal(*journal.Writer) {}

// Deprecated: see Manager; runs.Mount on the same mux already serves /cluster/runs.
func (*Manager) Routes(*http.ServeMux) {}
