package eval

import (
	"strings"
	"testing"
)

// TestBenchChecks drives every BENCH gate with one passing result and one
// failing result per bound, including the host-conditional parallel gates
// below and at ParallelGateCores. want is "" for a pass, otherwise a
// substring of the expected error.
func TestBenchChecks(t *testing.T) {
	track := func(edit func(*TrackThroughput)) TrackThroughput {
		r := TrackThroughput{Workers: 2, Host: Host{GOMAXPROCS: 2},
			SpeedupVsReference: 8, SpeedupParallel: 9, BitIdentical: true}
		edit(&r)
		return r
	}
	pyramid := func(edit func(*PyramidResult)) PyramidResult {
		r := PyramidResult{BitIdentical: true, MinAgreement: 0.999, SpeedupAtNZS10: 6,
			RMSEAtNZS10: 0.05, Fig5RMSE: 0.02, Fig6RMSE: 0.03}
		edit(&r)
		return r
	}
	ladder := func(pts ...ScalingPoint) []ScalingPoint { return pts }
	scaling := func(edit func(*Scaling)) Scaling {
		r := Scaling{BitIdentical: true, SerialSec: 1, GoMaxProcs: 2,
			Strong: ladder(ScalingPoint{Workers: 1, Sec: 1.2}, ScalingPoint{Workers: 2, Sec: 0.7})}
		edit(&r)
		return r
	}
	cluster := func(edit func(*ClusterScaling)) ClusterScaling {
		r := ClusterScaling{BitIdentical: true, Cores: 2, SpeedupAtMax: 1.02}
		edit(&r)
		return r
	}

	for _, tc := range []struct {
		name string
		r    interface{ Check() error }
		want string
	}{
		{"track/pass", track(func(*TrackThroughput) {}), ""},
		{"track/not bit-identical", track(func(r *TrackThroughput) { r.BitIdentical = false }), "bit-identical"},
		{"track/speedup at floor", track(func(r *TrackThroughput) { r.SpeedupVsReference = MinTrackSpeedup }), ""},
		{"track/speedup below floor", track(func(r *TrackThroughput) { r.SpeedupVsReference = 4.9 }), "below the 5.0x gate"},
		{"track/slow parallel below 4 cores", track(func(r *TrackThroughput) {
			r.Workers, r.Host.GOMAXPROCS, r.SpeedupParallel = 8, 3, 7
		}), ""},
		{"track/slow parallel below 4 workers", track(func(r *TrackThroughput) {
			r.Workers, r.Host.GOMAXPROCS, r.SpeedupParallel = 3, 8, 7
		}), ""},
		{"track/slow parallel at 4 cores", track(func(r *TrackThroughput) {
			r.Workers, r.Host.GOMAXPROCS, r.SpeedupParallel = 4, 4, 8
		}), "does not beat serial"},
		{"track/fast parallel at 4 cores", track(func(r *TrackThroughput) {
			r.Workers, r.Host.GOMAXPROCS = 4, 4
		}), ""},

		{"pyramid/pass", pyramid(func(*PyramidResult) {}), ""},
		{"pyramid/zero value", PyramidResult{}, "argmin agreement 0.0000"},
		{"pyramid/not bit-identical", pyramid(func(r *PyramidResult) { r.BitIdentical = false }), "oracle"},
		{"pyramid/agreement below floor", pyramid(func(r *PyramidResult) { r.MinAgreement = 0.996 }), "below the 0.997 gate"},
		{"pyramid/speedup below floor", pyramid(func(r *PyramidResult) { r.SpeedupAtNZS10 = 2.9 }), "below the 3.0x gate"},
		{"pyramid/NZS=10 RMSE above bound", pyramid(func(r *PyramidResult) { r.RMSEAtNZS10 = 0.11 }), "NZS=10 RMSE"},
		{"pyramid/fig5 RMSE above bound", pyramid(func(r *PyramidResult) { r.Fig5RMSE = 0.2 }), "fig5 fixture RMSE"},
		{"pyramid/fig6 RMSE above bound", pyramid(func(r *PyramidResult) { r.Fig6RMSE = 0.2 }), "fig6 fixture RMSE"},

		{"scaling/pass", scaling(func(*Scaling) {}), ""},
		{"scaling/not bit-identical", scaling(func(r *Scaling) { r.BitIdentical = false }), "bit-identical"},
		{"scaling/1-worker overhead above bound", scaling(func(r *Scaling) { r.Strong[0].Sec = 1.3 }), "exceeds serial"},
		{"scaling/no workers=1 point", scaling(func(r *Scaling) {
			r.Strong = ladder(ScalingPoint{Workers: 2, Sec: 0.7}, ScalingPoint{Workers: 4, Sec: 0.5})
		}), "no workers=1"},
		{"scaling/workers=1 point not first, slow", scaling(func(r *Scaling) {
			r.Strong = ladder(ScalingPoint{Workers: 2, Sec: 0.6}, ScalingPoint{Workers: 1, Sec: 1.3})
		}), "1-worker tile driver 1.300s"},
		{"scaling/workers=1 point not first, fast", scaling(func(r *Scaling) {
			r.Strong = ladder(ScalingPoint{Workers: 2, Sec: 1.3}, ScalingPoint{Workers: 1, Sec: 1.0})
		}), ""},
		{"scaling/serial beats parallel below 4 cores", scaling(func(r *Scaling) { r.GoMaxProcs = 3 }), ""},
		{"scaling/serial beats parallel at 4 cores", scaling(func(r *Scaling) { r.GoMaxProcs = 4 }), "does not beat serial"},
		{"scaling/parallel beats serial at 4 cores", scaling(func(r *Scaling) {
			r.GoMaxProcs, r.ParallelBeatsSerial = 4, true
		}), ""},

		{"cluster/pass", cluster(func(*ClusterScaling) {}), ""},
		{"cluster/not bit-identical", cluster(func(r *ClusterScaling) { r.BitIdentical = false }), "offline tracker"},
		{"cluster/low speedup below 4 cores", cluster(func(r *ClusterScaling) { r.Cores = 3 }), ""},
		{"cluster/low speedup at 4 cores", cluster(func(r *ClusterScaling) { r.Cores, r.SpeedupAtMax = 4, 2.4 }), "below the 2.5x gate"},
		{"cluster/speedup at floor at 4 cores", cluster(func(r *ClusterScaling) { r.Cores, r.SpeedupAtMax = 4, MinClusterSpeedup }), ""},

		{"recovery/pass", Recovery{CoordinatorExit: 137, ShardsRestored: 2, Resumed: true, BitIdentical: true}, ""},
		// Any violation fails the gate, whatever the other fields say.
		{"recovery/violation", Recovery{CoordinatorExit: 137, ShardsRestored: 6, Resumed: true, BitIdentical: true,
			Violations: []string{"all 6 shards restored; the crash should have left work to re-dispatch"}}, "all 6 shards restored"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.r.Check()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("want a failure mentioning %q, got pass", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("want a failure mentioning %q, got %v", tc.want, err)
			}
		})
	}
}
