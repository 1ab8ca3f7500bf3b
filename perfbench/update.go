package main

import (
	"context"
	"fmt"
	"os"

	"leosim"
)

// updateReferences recomputes every pinned digest a workload can ask for —
// each distinct set of sweep and churn inputs the workloads draw, plus the
// serving answer table — and rewrites reference.json in the current
// directory. Run it from perfbench/ after a deliberate change of results:
//
//	go run . -update-references -leosim <path to a leosim binary>
func updateReferences(o options) error {
	refs := references{}
	seen := map[inputs]bool{}
	for _, w := range workloads {
		for v := int64(0); v < 2; v++ {
			in := w.inputs(v)
			in.ScheduleSeed = 0 // the schedule does not enter any digest
			if seen[in] {
				continue
			}
			seen[in] = true
			rep := newReport(false)
			sim, err := setUpSim(rep, in)
			if err != nil {
				return err
			}
			_, got, err := runExperiments(context.Background(), rep, sim, in, nil)
			if err != nil {
				return err
			}
			for k, d := range got {
				refs[k] = d
			}
			if rep.failed > 0 {
				return fmt.Errorf("%d experiments failed", rep.failed)
			}
		}
	}
	key, d, err := tableDigest(o)
	if err != nil {
		return err
	}
	refs[key] = d
	if err := refs.write("reference.json"); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d reference digests\n", len(refs))
	return nil
}

// tableDigest serves the default configuration and digests its answer
// table.
func tableDigest(o options) (key, digest string, err error) {
	sim, err := leosim.NewSim(leosim.Starlink, leosim.ReducedScale())
	if err != nil {
		return "", "", err
	}
	snaps := len(sim.SnapshotTimes())
	srv, err := startServer(o)
	if err != nil {
		return "", "", err
	}
	defer srv.stop()
	if err := srv.waitPrimed(int64(2 * snaps)); err != nil {
		return "", "", err
	}
	c := newClient()
	defer c.close()
	cities := cityNames(sim)
	tab, err := c.fetchTable(srv.base, snaps, cities)
	if err != nil {
		return "", "", err
	}
	digest, err = digestJSON(tab.answers)
	return tableKey(snaps, len(cities)), digest, err
}
