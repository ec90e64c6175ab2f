package runs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mbrim/internal/obs"
)

// TestMain fails the package, when the suite otherwise passes, if run
// goroutines outlived their tests —
// the manager's whole contract is that drain/cancel reaps everything.
func TestMain(m *testing.M) {
	flag.Parse()
	base := runtime.NumGoroutine() + 2 // tolerate test-runner housekeeping
	code := m.Run()
	if code == 0 {
		if err := obs.CheckGoroutineLeaks(base, 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}
