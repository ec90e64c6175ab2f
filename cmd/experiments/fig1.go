package main

import (
	"flag"

	"mbrim/internal/brim"
	"mbrim/internal/dnc"
	"mbrim/internal/metrics"
	"mbrim/internal/sa"
)

func init() {
	register("fig1", "speedup of divide-and-conquer as the problem outgrows the machine", runFig1)
}

// runFig1 reproduces Fig 1: a fixed-capacity Ising machine glued by
// qbsolv (Algorithm 1) or the paper's d&c (Algorithm 2), speedup over
// a sequential SA solver as the graph grows past machine capacity.
//
// Within capacity the problem maps directly (program once, anneal);
// past capacity every pass pays tabu/SA glue on the host, and the
// speedup collapses by orders of magnitude — the paper's motivating
// cliff.
func runFig1(args []string) (*figure, error) {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	cap := fs.Int("cap", 100, "Ising machine capacity in spins (paper: 500)")
	maxN := fs.Int("maxn", 0, "largest graph (default 1.4×cap)")
	step := fs.Int("step", 0, "graph size step (default cap/10)")
	saSweeps := fs.Int("sasweeps", 300, "SA reference sweeps")
	saRuns := fs.Int("saruns", 5, "SA reference restarts")
	annealNS := fs.Float64("annealns", 1000, "machine anneal time per launch, ns")
	programNS := fs.Float64("programns", 100, "machine reprogram time per launch, ns")
	real := fs.Bool("real", false, "use the full BRIM dynamical-system machine instead of the SA-quality proxy (slow)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *maxN == 0 {
		*maxN = *cap * 14 / 10
	}
	if *step == 0 {
		*step = *cap / 10
	}

	f := &figure{}
	qb := &metrics.Series{Name: "qbsolv (D-Wave d&c)"}
	ours := &metrics.Series{Name: "ours (Algorithm 2)"}
	quality := &metrics.Series{Name: "quality ratio qbsolv/SA (cut)"}

	for n := *step; n <= *maxN; n += *step {
		g, m := kgraph(n, *seed+uint64(n))

		// Reference: sequential SA on the whole problem, batch of
		// restarts, measured wall time.
		ref := sa.SolveBatch(m, sa.Config{Sweeps: *saSweeps, Seed: *seed}, *saRuns)
		refNS := float64(ref.Wall.Nanoseconds())
		refCut := g.CutValue(ref.Best.Spins)

		var mach dnc.Machine = &dnc.ProxyMachine{Cap: *cap, AnnealNS: *annealNS, Program: *programNS, Sweeps: 60}
		if *real {
			mach = &dnc.BRIMMachine{
				Cap:     *cap,
				Cfg:     brim.SolveConfig{Duration: *annealNS},
				Program: *programNS,
			}
		}

		var qbNS, oursNS, qbCut float64
		if n <= *cap {
			// The problem fits: program once, anneal the batch. No glue.
			qbNS = *programNS + float64(*saRuns)*(*annealNS)
			oursNS = qbNS
			sol, _ := mach.Anneal(m, nil, *seed)
			qbCut = g.CutValue(sol)
		} else {
			qres := dnc.QBSolv(m, mach, dnc.QBSolvConfig{Seed: *seed})
			ores := dnc.Ours(m, mach, dnc.OursConfig{Seed: *seed})
			qbNS = qres.TotalNS()
			oursNS = ores.TotalNS()
			qbCut = g.CutValue(qres.Spins)
		}
		qb.Add(float64(n), refNS/qbNS)
		ours.Add(float64(n), refNS/oursNS)
		// The headline pair: the largest size that fits the machine and
		// the first that does not.
		if *cap-*step < n && n <= *cap+*step {
			where := "at capacity"
			if n > *cap {
				where = "one step past capacity"
			}
			f.set("qbsolv speedup "+where, refNS/qbNS)
			f.set("ours speedup "+where, refNS/oursNS)
		}
		if refCut != 0 {
			quality.Add(float64(n), qbCut/refCut)
		}
	}

	f.table("Fig 1: d&c speedup over sequential SA vs graph size", qb, ours, quality)
	f.note("expected shape (paper, 500-spin machine): speedup grows while the problem")
	f.note("fits the machine, then crashes by orders of magnitude one step past capacity")
	f.note("(~600,000x at n=500 down to ~250x at n=520); 'ours' only slightly better.")
	f.note("machine capacity here: %d spins; cliff should appear just past n=%d.", *cap, *cap)
	return f, nil
}
