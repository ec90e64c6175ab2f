package runs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"mbrim/internal/core"
	"mbrim/internal/obs"
)

// TestSSEClientDisconnectMidStream pins the tail's cleanup contract: a
// client that walks away mid-stream of a LIVE run must have its handler
// exit promptly, and its departure must not perturb the solve. The run
// is held at its 20th event while the tail comes and goes, so the
// process' goroutines hold still and the handler has nothing to send:
// only the disconnect can end it.
func TestSSEClientDisconnectMidStream(t *testing.T) {
	srv, m, _ := newTestServer(t, Config{})
	run, release := submitGated(t, m, mbrimSeqRequest(20, 50000), 20)
	st := Status{ID: run.ID()}

	// Attach a live tail, on a connection of its own, and read until
	// its first trace event proves the stream is in flight.
	tail := &http.Client{Transport: &http.Transport{}}
	base := runtime.NumGoroutine()
	stream, err := tail.Get(srv.URL + "/runs/" + st.ID + "/events?replay=1")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stream.Body)
	if live := readSSE(t, sc, func(e sseEvent) bool { return e.kind == "trace" }); len(live) == 0 {
		t.Fatal("no live trace event")
	}

	// The client disconnects without ceremony. The handler must notice
	// via the request context and return, its connection with it.
	stream.Body.Close()
	if err := obs.CheckGoroutineLeaks(base, 5*time.Second); err != nil {
		t.Fatalf("the stream's handler did not exit after disconnect: %v", err)
	}
	release()

	// The solve must be unharmed: cancel it and verify the terminal
	// state round-trips, and a fresh stream still ends with done.
	if resp, b := postJSON(t, srv.URL+"/runs/"+st.ID+"/cancel", ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel after disconnect = %d %s", resp.StatusCode, b)
	}
	waitDone(t, run)
	resp2, err := http.Get(srv.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	msgs := readSSE(t, bufio.NewScanner(resp2.Body), func(e sseEvent) bool { return e.kind == "done" })
	if len(msgs) == 0 || msgs[len(msgs)-1].kind != "done" {
		t.Fatalf("post-disconnect stream ended without done (%d messages)", len(msgs))
	}
	var final Status
	if err := json.Unmarshal(msgs[len(msgs)-1].data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateInterrupted {
		t.Fatalf("state = %s, want interrupted", final.State)
	}
}

// TestCheckpointRoundTripUnderConcurrentCancel races a crowd of
// cancellers and checkpoint downloaders against one live run: every
// response must be well-formed (202 for cancels; 409-then-200 for
// downloads, never a 5xx), all successful downloads must serve the
// same bytes, and the envelope must resume to the uninterrupted run's
// exact bits.
func TestCheckpointRoundTripUnderConcurrentCancel(t *testing.T) {
	const k, durationNS = 20, 10000.0
	baseline, err := core.Solve(mbrimSeqRequest(k, durationNS))
	if err != nil {
		t.Fatal(err)
	}

	srv, m, _ := newTestServer(t, Config{})
	_, body := postJSON(t, srv.URL+"/runs",
		fmt.Sprintf(`{"engine":"mbrim-seq","k":%d,"seed":3,"durationNS":%g,"chips":4}`, k, durationNS))
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	run, _ := m.Get(st.ID)

	// Wait for the run to be genuinely in flight before unleashing the
	// crowd, so the cancel interrupts rather than pre-empts.
	stream, err := http.Get(srv.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if live := readSSE(t, bufio.NewScanner(stream.Body), func(e sseEvent) bool { return e.kind == "trace" }); len(live) == 0 {
		t.Fatal("no live trace event")
	}
	stream.Body.Close()

	const crowd = 8
	var wg sync.WaitGroup
	statuses := make([]int, 2*crowd)
	bodies := make([][]byte, 2*crowd)
	for i := 0; i < crowd; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/runs/"+st.ID+"/cancel", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/runs/" + st.ID + "/checkpoint")
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			statuses[crowd+i] = resp.StatusCode
			bodies[crowd+i] = b
		}(i)
	}
	wg.Wait()
	waitDone(t, run)

	for i := 0; i < crowd; i++ {
		if statuses[i] != http.StatusAccepted {
			t.Fatalf("concurrent cancel %d = %d", i, statuses[i])
		}
	}
	for i := crowd; i < 2*crowd; i++ {
		if statuses[i] != http.StatusConflict && statuses[i] != http.StatusOK {
			t.Fatalf("racing checkpoint download %d = %d (want 409 or 200)", i-crowd, statuses[i])
		}
	}

	// Post-interrupt, every download must serve identical bytes...
	finals := make([][]byte, crowd)
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/runs/" + st.ID + "/checkpoint")
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("terminal checkpoint download = %d %s", resp.StatusCode, b)
				return
			}
			finals[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < crowd; i++ {
		if !bytes.Equal(finals[i], finals[0]) {
			t.Fatalf("download %d differs from download 0", i)
		}
	}
	// ...any 200 that raced the interrupt must match them too...
	for i := crowd; i < 2*crowd; i++ {
		if statuses[i] == http.StatusOK && !bytes.Equal(bodies[i], finals[0]) {
			t.Fatalf("racing 200 download %d served different bytes", i-crowd)
		}
	}
	// ...and the envelope must resume to the baseline's exact bits.
	req := mbrimSeqRequest(k, durationNS)
	req.Resume = finals[0]
	resumed, err := core.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Energy != baseline.Energy {
		t.Fatalf("resumed energy %v != baseline %v", resumed.Energy, baseline.Energy)
	}
	if !bytes.Equal(int8Bytes(resumed.Spins), int8Bytes(baseline.Spins)) {
		t.Fatal("resumed spins differ from the uninterrupted run")
	}
}
