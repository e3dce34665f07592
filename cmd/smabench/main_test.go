package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sma/internal/eval"
)

// TestSaveBenchFormat pins the BENCH file bytes to what a json.Encoder
// with a two-space indent writes (the format of the committed BENCH
// files) and checks that a result failing its gate still leaves its file
// behind and reports the failure.
func TestSaveBenchFormat(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		key  string
		r    any
		want string // "" = no gate error
	}{
		{"stream", eval.StreamThroughput{Name: "stream_throughput", Frames: 4, BitIdentical: true}, ""},
		{"cluster", eval.ClusterScaling{Name: "cluster_scaling", Cores: 1, SpeedupAtMax: 1, BitIdentical: true}, ""},
		{"recovery", eval.Recovery{Name: "recovery", CoordinatorExit: 0,
			Violations: []string{"coordinator exited 0, want the crash point's 137"}}, "recovery gate failed"},
	} {
		err := saveBench(dir, tc.key, tc.r)
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: %v", tc.key, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Fatalf("%s: want an error mentioning %q, got %v", tc.key, tc.want, err)
		}
		got, rerr := os.ReadFile(filepath.Join(dir, "BENCH_"+tc.key+".json"))
		if rerr != nil {
			t.Fatal(rerr)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tc.r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: file bytes differ from the encoder's:\n%s\nwant:\n%s", tc.key, got, want.Bytes())
		}
	}
}
