package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"mbrim/internal/multichip"
)

// httpClient is shared by every client goroutine; keep-alive reuses
// one loopback connection per client.
var httpClient = &http.Client{Timeout: 60 * time.Second}

// solveResult is everything the bench learns about one solve.
type solveResult struct {
	in  *solveInput
	err error // transport, non-2xx, non-completed state, timeout

	start    time.Time
	wallMS   float64 // POST sent -> outcome body in hand
	postMS   float64 // the synchronous part of submit
	detectMS float64 // client end - daemon's endedWallNS
	polls    int
	status   runStatus
	body     []byte // outcome body (runs surface); verified after the window

	// Filled by verify.
	energy, cut, modelNS            float64
	flips, bitChanges, trafficBytes float64
	spins                           []int8
	verr                            error
}

// runStatus is the subset of GET /runs/{id} (and of the cluster status)
// the bench reads.
type runStatus struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	Error         string `json:"error"`
	QueueWaitNS   int64  `json:"queueWaitNS"`
	StartedWallNS int64  `json:"startedWallNS"`
	EndedWallNS   int64  `json:"endedWallNS"`
	Outcome       *struct {
		WallNS int64 `json:"wallNS"`
	} `json:"outcome"`
	// Cluster status fields.
	Done   bool           `json:"done"`
	Result *clusterResult `json:"result"`
}

type clusterResult struct {
	Energy       float64 `json:"energy"`
	ElapsedNS    float64 `json:"elapsedNS"`
	Flips        float64 `json:"flips"`
	BitChanges   float64 `json:"bitChanges"`
	TrafficBytes float64 `json:"trafficBytes"`
}

// outcomeBody mirrors runs.OutcomeBody's wire form.
type outcomeBody struct {
	State   string             `json:"state"`
	Seed    uint64             `json:"seed"`
	Energy  float64            `json:"energy"`
	Cut     float64            `json:"cut"`
	ModelNS float64            `json:"modelNS"`
	Stats   map[string]float64 `json:"stats"`
	Spins   []int8             `json:"spins"`
}

func do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// minSolveDeadline floors the per-solve deadline (ten times the
// expected wall): it exists to turn a hang into a counted failure, and
// a 14 ms solve that once stalls for 150 ms on a shared host is a tail
// sample, not a hang.
const minSolveDeadline = 5 * time.Second

// solveOnce drives one closed-loop solve: submit, poll at the fixed
// interval, fetch the outcome. The outcome is kept raw; decoding and
// verification happen after the measured window so the client costs
// the daemon as little CPU as it can.
func solveOnce(t *target, w *workload, in *solveInput) solveResult {
	res := solveResult{in: in}
	prefix := "/runs"
	if w.cluster() {
		prefix = "/cluster/runs"
	}
	deadline := max(time.Duration(10*w.ExpectMS*float64(time.Millisecond)), minSolveDeadline)
	t0 := time.Now()
	res.start = t0
	code, b, err := do(http.MethodPost, t.base+prefix, in.body)
	res.postMS = msSince(t0)
	if err == nil && code/100 != 2 {
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(b))
	}
	if err == nil {
		err = json.Unmarshal(b, &res.status)
	}
	if err != nil {
		res.err = err
		return res
	}
	url := t.base + prefix + "/" + res.status.ID
	for {
		time.Sleep(w.Poll)
		res.polls++
		code, b, err = do(http.MethodGet, url, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status: HTTP %d: %s", code, bytes.TrimSpace(b))
		}
		if err == nil {
			res.status = runStatus{}
			err = json.Unmarshal(b, &res.status)
		}
		if err != nil {
			res.err = err
			return res
		}
		if res.status.Done || res.status.State == "completed" || res.status.State == "failed" || res.status.State == "interrupted" {
			break
		}
		if time.Since(t0) > deadline {
			res.err = fmt.Errorf("%s still %q after %v", res.status.ID, res.status.State, deadline)
			return res
		}
	}
	switch {
	case w.cluster():
		if res.status.Error != "" || res.status.Result == nil {
			res.err = fmt.Errorf("%s failed: %s", res.status.ID, res.status.Error)
		}
	case res.status.State != "completed":
		res.err = fmt.Errorf("%s ended %s: %s", res.status.ID, res.status.State, res.status.Error)
	default:
		code, res.body, err = do(http.MethodGet, url+"/outcome", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("outcome: HTTP %d: %s", code, bytes.TrimSpace(res.body))
		}
		res.err = err
	}
	end := time.Now()
	res.wallMS = float64(end.Sub(t0).Nanoseconds()) / 1e6
	if res.status.EndedWallNS > 0 {
		res.detectMS = float64(end.UnixNano()-res.status.EndedWallNS) / 1e6
	}
	return res
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runLoop drives inputs through the target with w.Clients closed-loop
// clients: client c takes solves c, c+Clients, … and sends its next
// request only once the previous outcome is in hand. Every input is
// run: the work is the fixed count, never a time box, so the
// seed-determined outputs cannot depend on the host's speed.
func runLoop(t *target, w *workload, inputs []solveInput) []solveResult {
	results := make([]solveResult, len(inputs))
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(inputs); i += w.Clients {
				results[i] = solveOnce(t, w, &inputs[i])
			}
		}(c)
	}
	wg.Wait()
	return results
}

// verify decodes one solve's outcome and checks it against the bench's
// own copy of the instance: spins are ±1 and of length n, the reported
// energy is the model's energy of the returned spins, the reported cut
// is the graph's cut. Cluster statuses carry no spins, so their cut
// comes from the reported energy.
func verify(w *workload, r *solveResult) {
	if r.err != nil {
		return
	}
	in := r.in.inst
	if w.cluster() {
		cr := r.status.Result
		r.energy, r.modelNS = cr.Energy, cr.ElapsedNS
		r.flips, r.bitChanges, r.trafficBytes = cr.Flips, cr.BitChanges, cr.TrafficBytes
		r.cut = in.g.CutFromEnergy(cr.Energy)
		return
	}
	var ob outcomeBody
	if err := json.Unmarshal(r.body, &ob); err != nil {
		r.verr = fmt.Errorf("decoding outcome: %w", err)
		return
	}
	r.energy, r.cut, r.modelNS, r.spins = ob.Energy, ob.Cut, ob.ModelNS, ob.Spins
	r.flips, r.bitChanges, r.trafficBytes = ob.Stats["flips"], ob.Stats["bitChanges"], ob.Stats["trafficBytes"]
	if ob.Seed != r.in.seed {
		r.verr = fmt.Errorf("outcome for seed %d, submitted %d", ob.Seed, r.in.seed)
		return
	}
	if len(ob.Spins) != in.m.N() {
		r.verr = fmt.Errorf("%d spins for a %d-spin problem", len(ob.Spins), in.m.N())
		return
	}
	for i, s := range ob.Spins {
		if s != 1 && s != -1 {
			r.verr = fmt.Errorf("spin %d is %d", i, s)
			return
		}
	}
	if e := in.m.Energy(ob.Spins); e != ob.Energy {
		r.verr = fmt.Errorf("reported energy %v, spins have %v", ob.Energy, e)
		return
	}
	if c := in.g.CutValue(ob.Spins); c != ob.Cut {
		r.verr = fmt.Errorf("reported cut %v, spins cut %v", ob.Cut, c)
	}
}

// verifyClusterParity checks the repository's bit-identity contract on
// one cluster solve: energy, flips, bit changes and fabric traffic equal
// an in-process RunConcurrent on the same model and seed.
func verifyClusterParity(w *workload, r *solveResult) {
	if r.err != nil || r.verr != nil {
		return
	}
	sys, err := multichip.NewSystem(r.in.inst.m, w.multichipConfig(r.in.seed))
	if err != nil {
		r.verr = err
		return
	}
	ref := sys.RunConcurrent(w.durationNS())
	if ref.Energy != r.energy || float64(ref.Flips) != r.flips ||
		float64(ref.BitChanges) != r.bitChanges || ref.TrafficBytes != r.trafficBytes {
		r.verr = fmt.Errorf("cluster run diverged from in-process: energy %v/%v flips %v/%v bitChanges %v/%v traffic %v/%v",
			r.energy, ref.Energy, r.flips, ref.Flips, r.bitChanges, ref.BitChanges, r.trafficBytes, ref.TrafficBytes)
	}
}

// digest is the SHA-256 over every verified solve's seed-determined
// outputs, in seed order. A change meant only to speed the simulator
// up must leave it identical.
func digest(results []solveResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range results {
		r := &results[i]
		if r.err != nil || r.verr != nil {
			continue
		}
		put(r.in.seed)
		put(math.Float64bits(r.energy))
		put(math.Float64bits(r.modelNS))
		put(math.Float64bits(r.flips))
		put(math.Float64bits(r.bitChanges))
		put(math.Float64bits(r.trafficBytes))
		spins := make([]byte, len(r.spins))
		for i, s := range r.spins {
			spins[i] = byte(s)
		}
		h.Write(spins)
	}
	return hex.EncodeToString(h.Sum(nil))
}
