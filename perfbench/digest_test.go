package main

import (
	"strings"
	"testing"
)

func TestDigestJSONIsStableAndSensitive(t *testing.T) {
	a, err := digestJSON([]answer{{Reachable: true, RTTMs: 41.25, Hops: 3}})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digestJSON([]answer{{Reachable: true, RTTMs: 41.25, Hops: 3}})
	if a != b || len(a) != 16 {
		t.Fatalf("digest not stable: %q vs %q", a, b)
	}
	// The last bit of an RTT changes the digest.
	c, _ := digestJSON([]answer{{Reachable: true, RTTMs: 41.250000000000007, Hops: 3}})
	if c == a {
		t.Fatal("digest blind to a one-ulp RTT change")
	}
}

func TestGateTripsOnPerturbedDigest(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	key := sweepKey("fig2a", defaultInputs())
	want, ok := refs[key]
	if !ok {
		t.Fatalf("no reference for %s", key)
	}
	if err := refs.check(key, want); err != nil {
		t.Fatalf("pinned digest rejected: %v", err)
	}
	perturbed := "0" + want[1:]
	if perturbed == want {
		perturbed = "1" + want[1:]
	}
	if err := refs.check(key, perturbed); err == nil || !strings.Contains(err.Error(), "output gate") {
		t.Fatalf("perturbed digest passed the gate (err %v)", err)
	}
	if err := refs.check("fig2a/seed=999/pairs=250", want); err == nil {
		t.Fatal("a key without a reference passed the gate")
	}

	// A perturbed reference fails a run's operation and counts in its
	// error rate.
	rep := newReport(false)
	bad := references{key: perturbed}
	rep.attempted++
	if err := bad.check(key, want); err != nil {
		rep.fail(err.Error())
	}
	if rep.failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.failed)
	}
}

// Every input a workload can draw — both variants of each — has its pinned
// digests, so no seed the benchmark accepts runs unchecked.
func TestReferencesCoverEveryWorkloadInput(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{-3, 0, 1, 2, 41, 1 << 40} {
			in := w.inputs(seed)
			for _, k := range []string{sweepKey("fig2a", in), sweepKey("fig4", in), sweepKey("fig6", in), churnKey(in)} {
				if _, ok := refs[k]; !ok {
					t.Errorf("%s seed %d: no reference for %s", w.name, seed, k)
				}
			}
		}
	}
	// The reduced scale serves 150 cities over 12 snapshots.
	if _, ok := refs[tableKey(12, 150)]; !ok {
		t.Errorf("no reference for %s", tableKey(12, 150))
	}
}

func TestWorkloadInputsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		if w.inputs(7) != w.inputs(7) {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if w.inputs(0) == w.inputs(1) {
			t.Errorf("%s: seeds 0 and 1 draw the same inputs", w.name)
		}
	}
}
