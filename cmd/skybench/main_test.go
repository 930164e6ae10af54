package main

import (
	"strings"
	"testing"
)

// TestCheckDataDir: -data-dir is read by -tiered alone; every other use
// is rejected with an error naming -tiered, never silently ignored.
func TestCheckDataDir(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		dataDir, benchJSON, tiered string
		ok                         bool
	}{
		{"no -data-dir", "", "", "", true},
		{"-bench-json", "", "BENCH_21.json", "", true},
		{"-tiered", "", "", "BENCH_8.json", true},
		{"-tiered -data-dir", "/tmp/lftier", "", "BENCH_8.json", true},
		{"-data-dir alone", "/tmp/lfseg", "", "", false},
		{"-bench-json -data-dir", "/tmp/lfseg", "BENCH_21.json", "", false},
	} {
		err := checkDataDir(tc.dataDir, tc.benchJSON, tc.tiered)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "-tiered") {
			t.Errorf("%s: got %v, want an error naming -tiered", tc.name, err)
		}
	}
}
