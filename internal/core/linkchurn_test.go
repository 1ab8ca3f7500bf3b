package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"leosim/internal/telemetry"
)

func TestRunChurnDeterministic(t *testing.T) {
	s := getTinySim(t)
	opt := ChurnOptions{Step: 2 * time.Second, Window: 20 * time.Second}
	r1, err := RunChurn(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunChurn(context.Background(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("churn not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestRunChurnShape(t *testing.T) {
	s := getTinySim(t)
	r, err := RunChurn(context.Background(), s, ChurnOptions{Step: 2 * time.Second, Window: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 10 {
		t.Fatalf("steps = %d, want 10", r.Steps)
	}
	for _, m := range []Mode{BP, Hybrid} {
		st, ok := r.Modes[m]
		if !ok || st.PairsUsed == 0 {
			t.Fatalf("mode %s missing or empty: %+v", m, st)
		}
		if st.RouteChangesPerMin < st.UplinkHandoversPerMin {
			t.Fatalf("%s: uplink handovers (%.2f/min) exceed route changes (%.2f/min) — a handover is a route change",
				m, st.UplinkHandoversPerMin, st.RouteChangesPerMin)
		}
	}
	if r.GSLAppearPerStep < 0 || r.GSLVanishPerStep < 0 {
		t.Fatalf("negative GSL rates: %+v", r)
	}

	var sb strings.Builder
	WriteChurnReport(&sb, r)
	out := sb.String()
	for _, want := range []string{"churn window=", "GSL edges", "bp", "hybrid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunChurnValidation(t *testing.T) {
	s := getTinySim(t)
	if _, err := RunChurn(context.Background(), s, ChurnOptions{Step: time.Minute, Window: time.Second}); err == nil {
		t.Fatal("window shorter than step accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunChurn(ctx, s, ChurnOptions{}); err != context.Canceled {
		t.Fatalf("cancelled churn returned %v", err)
	}
}

// Under a run recorder, churn attributes its wall time to the advance and
// search stages: one advance span per instant and mode, one search fan-out
// per instant and mode.
func TestRunChurnStageTimes(t *testing.T) {
	s := getTinySim(t)
	telemetry.Enable()
	defer telemetry.Disable()
	rec := telemetry.NewRecorder()
	ctx := telemetry.WithRecorder(context.Background(), rec)
	if _, err := RunChurn(ctx, s, ChurnOptions{Step: 2 * time.Second, Window: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	const spans = 2 * (5 + 1)
	for _, stage := range []telemetry.Stage{telemetry.StageAdvance, telemetry.StageSearch} {
		if rec.Count(stage) != spans || rec.Total(stage) <= 0 {
			t.Errorf("%s: %d spans totalling %v, want %d and > 0", stage, rec.Count(stage), rec.Total(stage), spans)
		}
	}
}
