package experiments

import (
	"strings"
	"testing"

	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
	"hclocksync/internal/mpi"
)

func tinyCustomJob() Job {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 4, 2
	return Job{Spec: spec, NProcs: 16, Seed: 17}
}

func TestRunCustomAllSchemes(t *testing.T) {
	for _, scheme := range []string{"barrier", "window", "roundtime"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res, err := RunCustom(CustomConfig{
				Job:       tinyCustomJob(),
				Operation: "allreduce",
				MSizes:    []int{8, 64},
				Scheme:    scheme,
				NRep:      15,
				TimeSlice: 20e-3,
				Sync:      h2hca(40, 10),
				Barrier:   mpi.BarrierTree,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 2 {
				t.Fatalf("%d rows", len(res.Rows))
			}
			for _, row := range res.Rows {
				if row.N == 0 {
					t.Errorf("msize %d: no valid samples", row.MSize)
				}
				if row.Median < 1e-6 || row.Median > 1e-3 {
					t.Errorf("msize %d: median %v", row.MSize, row.Median)
				}
				if !(row.Min <= row.Median && row.Median <= row.Max) {
					t.Errorf("msize %d: ordering broken: %+v", row.MSize, row)
				}
			}
		})
	}
}

func TestRunCustomAllOperations(t *testing.T) {
	for _, op := range []string{"allreduce", "alltoall", "bcast", "barrier"} {
		op := op
		t.Run(op, func(t *testing.T) {
			res, err := RunCustom(CustomConfig{
				Job:       tinyCustomJob(),
				Operation: op,
				MSizes:    []int{8},
				Scheme:    "roundtime",
				NRep:      10,
				TimeSlice: 20e-3,
				Sync:      h2hca(40, 10),
				Barrier:   mpi.BarrierDissemination,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0].N == 0 || res.Rows[0].Median <= 0 {
				t.Errorf("%s: row %+v", op, res.Rows[0])
			}
		})
	}
}

func TestRunCustomRejectsBadOperation(t *testing.T) {
	_, err := RunCustom(CustomConfig{Job: tinyCustomJob(), Operation: "gather-scatter"})
	if err == nil {
		t.Fatal("expected error for unknown operation")
	}
}

func TestParseHelpers(t *testing.T) {
	for _, name := range []string{"jupiter", "Hydra", "TITAN"} {
		if _, err := ParseMachine(name); err != nil {
			t.Errorf("ParseMachine(%q): %v", name, err)
		}
	}
	if _, err := ParseMachine("summit"); err == nil {
		t.Error("expected error for unknown machine")
	}
	p := clocksync.Params{NFitpoints: 40, Offset: clocksync.SKaMPIOffset{NExchanges: 10}}
	for _, name := range []string{"hca", "hca2", "hca3", "jk", "h2hca", "h3hca", "skampi"} {
		alg, err := ParseSyncAlg(name, p)
		if err != nil {
			t.Errorf("ParseSyncAlg(%q): %v", name, err)
		} else if alg.Name() == "" {
			t.Errorf("ParseSyncAlg(%q): empty label", name)
		}
	}
	if _, err := ParseSyncAlg("ntp", p); err == nil {
		t.Error("expected error for unknown sync algorithm")
	}
	for _, a := range mpi.BarrierAlgs() {
		got, err := ParseBarrierAlg(a.String())
		if err != nil || got != a {
			t.Errorf("ParseBarrierAlg(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseBarrierAlg("mcs-lock"); err == nil {
		t.Error("expected error for unknown barrier")
	}
}

func TestCustomPrintFormat(t *testing.T) {
	res, err := RunCustom(CustomConfig{
		Job:       tinyCustomJob(),
		MSizes:    []int{8},
		Scheme:    "roundtime",
		NRep:      8,
		TimeSlice: 10e-3,
		Sync:      h2hca(40, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	res.Print(&b)
	out := b.String()
	if !strings.Contains(out, "op=allreduce") || !strings.Contains(out, "median") {
		t.Errorf("output = %q", out)
	}
}
