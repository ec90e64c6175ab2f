package main

import (
	"flag"
	"fmt"
)

func init() {
	register("fig10", "batch-mode staggering schedule: which chip works which job each epoch", runFig10)
}

// runFig10 renders the staggering schedule of Fig 10: in batch mode,
// epoch e assigns chip c to job (c + e) mod jobs, so viewed vertically
// each job walks across the chips (its slices anneal in turn) and
// viewed horizontally every chip is always busy on a different job.
// The same rotation drives multichip.System.RunBatch; this subcommand
// verifies its two defining properties and prints the grid.
func runFig10(args []string) (*figure, error) {
	fs := flag.NewFlagSet("fig10", flag.ContinueOnError)
	chips := fs.Int("chips", 4, "number of chips")
	jobs := fs.Int("jobs", 4, "number of staggered jobs")
	epochs := fs.Int("epochs", 8, "epochs to display")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *chips < 1 || *jobs < 1 || *epochs < 1 {
		return nil, fmt.Errorf("all arguments must be positive")
	}

	f := &figure{}
	f.printf("# Fig 10: batch staggering, %d chips × %d jobs\n", *chips, *jobs)
	f.printf("%8s", "epoch")
	for c := 0; c < *chips; c++ {
		f.printf("  chip%d", c)
	}
	f.printf("\n")
	for e := 0; e < *epochs; e++ {
		f.printf("%8d", e+1)
		for c := 0; c < *chips; c++ {
			f.printf("   job%d", (c+e)%*jobs)
		}
		f.printf("\n")
	}

	// Property 1: when jobs >= chips, no two chips share a job within
	// an epoch (each job's state is touched by at most one worker).
	if *jobs >= *chips {
		for e := 0; e < *epochs; e++ {
			seen := map[int]bool{}
			for c := 0; c < *chips; c++ {
				j := (c + e) % *jobs
				if seen[j] {
					return nil, fmt.Errorf("epoch %d assigns job %d twice", e, j)
				}
				seen[j] = true
			}
		}
		f.set("epochs with distinct jobs", float64(*epochs))
		f.note("within every epoch each chip works a distinct job — states never conflict.")
	}
	// Property 2: over jobs consecutive epochs, every job visits every
	// chip exactly once (all of its slices get annealed).
	if *jobs == *chips {
		for j := 0; j < *jobs; j++ {
			visited := map[int]bool{}
			for e := 0; e < *chips; e++ {
				for c := 0; c < *chips; c++ {
					if (c+e)%*jobs == j {
						visited[c] = true
					}
				}
			}
			if len(visited) != *chips {
				return nil, fmt.Errorf("job %d visited only %d chips in %d epochs", j, len(visited), *chips)
			}
		}
		f.set("jobs visiting every chip", float64(*jobs))
		f.note("over %d consecutive epochs every job visits every chip once — full", *chips)
		f.note("coverage of its spin slices, with only O(N) state moving per boundary.")
	}
	return f, nil
}
