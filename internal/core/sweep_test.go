package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestRunSweepOrdering(t *testing.T) {
	for _, par := range []int{0, 1, 2, 4, 16, 100} {
		got, err := RunSweep(context.Background(), 20, par, func(ctx context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != 20 {
			t.Fatalf("parallelism %d: %d results", par, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallelism %d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunSweepEmpty(t *testing.T) {
	got, err := RunSweep(context.Background(), 0, 4, func(ctx context.Context, i int) (int, error) { return 0, errors.New("never called") })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

func TestRunSweepAggregatesJobErrors(t *testing.T) {
	for _, par := range []int{1, 3, 8} {
		_, err := RunSweep(context.Background(), 10, par, func(ctx context.Context, i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		var je *JobError
		if !errors.As(err, &je) || je.Index != 3 {
			t.Fatalf("parallelism %d: err = %v, want JobError at index 3", par, err)
		}
		// Both failures are aggregated, in index order.
		msg := err.Error()
		if !strings.Contains(msg, "fail at 3") || !strings.Contains(msg, "fail at 7") ||
			strings.Index(msg, "fail at 3") > strings.Index(msg, "fail at 7") {
			t.Fatalf("parallelism %d: aggregate %q missing ordered job errors", par, msg)
		}
	}
}

// TestSweepBufferCapsParallelDeterminism: the acceptance criterion that a
// parallel sweep is indistinguishable from the sequential one — same points,
// same order, same solver iterates.
func TestSweepBufferCapsParallelDeterminism(t *testing.T) {
	caps := []int{1, 2, 3, 4, 5, 6}
	seq, err := SweepBufferCaps(context.Background(), gen.PaperT1(0), nil, caps, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepBufferCaps(context.Background(), gen.PaperT1(0), nil, caps, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range seq {
		clearDurations(p.Result)
	}
	for _, p := range par {
		clearDurations(p.Result)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep differs from sequential:\nseq %+v\npar %+v", seq, par)
	}
}

func TestParetoFrontierParallelDeterminism(t *testing.T) {
	seq, err := ParetoFrontier(context.Background(), gen.PaperT1(0), 7, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParetoFrontier(context.Background(), gen.PaperT1(0), 7, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range seq {
		clearDurations(p.Result)
	}
	for _, p := range par {
		clearDurations(p.Result)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel frontier differs from sequential:\nseq %+v\npar %+v", seq, par)
	}
}

// clearDurations zeroes the report-only wall-clock fields so DeepEqual
// compares the numeric payload; everything else must be bit-identical
// between sequential and parallel runs.
func clearDurations(results ...*Result) {
	for _, r := range results {
		if r == nil || r.Report == nil {
			continue
		}
		for i := range r.Report.Attempts {
			r.Report.Attempts[i].Duration = 0
		}
	}
}
