package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/trace"
)

// update regenerates the committed fingerprint table — only for a change that
// means to move virtual time, trace bytes or hits:
//
//	go test ./internal/serve/ -run TestServeFingerprints -update
var update = flag.Bool("update", false, "rewrite the committed fingerprint table")

const fingerprintTable = "serve_fingerprints.txt"

// TestServeFingerprints pins absolute bytes of the serving path, as
// core.TestEngineFingerprints does for the batch engines: SHA-256 over the
// Chrome-trace export, every completion (hits, batch id, arrival and
// completion instants), the service counters and the backend's checkpoint and
// migration traffic, against a committed table. With PEPSCALE_FP_DUMP=dir set
// the hashed bytes are written to dir/<name>.
func TestServeFingerprints(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	arrivals := Schedule(steadySpec(), pool)
	crash := func(rank, call int) []*cluster.FaultPlan {
		return []*cluster.FaultPlan{{CrashAtCall: map[int]int{rank: call}}}
	}
	configs := []struct {
		name  string
		steps int
		mp    *cluster.MembershipPlan
		fault []*cluster.FaultPlan
	}{
		{"steady/steps=0", 0, nil, nil},
		{"steady/steps=1", 1, nil, nil},
		{"crash", 1, nil, crash(0, 6)},
		{"rotation", 1, chaosMembership(), nil},
		// TestChaosCombinedDeterministic's schedule.
		{"crash+rotation", 1, chaosMembership(), crash(1, 6)},
	}

	var table bytes.Buffer
	want := map[string]string{}
	if !*update {
		f, err := os.Open(filepath.Join("testdata", fingerprintTable))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
				want[name] = sum
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	lines := 0
	for _, mode := range []string{core.ScanModePeptideMajor, core.ScanModeFragIdx} {
		for _, c := range configs {
			name := mode + "/" + c.name
			cfg := steadyCfg(db)
			cfg.Opt.ScanMode = mode
			cfg.StepsPerQuantum = c.steps
			cfg.Membership = c.mp
			cfg.Faults = c.fault
			cfg.Trace = true
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: New: %v", name, err)
			}
			if _, err := s.Play(arrivals); err != nil {
				t.Fatalf("%s: Play: %v", name, err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
			st := s.Metrics()
			if (c.fault != nil) != (st.Crashes > 0) || (c.mp != nil) != (st.Rotations > 0) {
				t.Errorf("%s: %d crashes, %d rotations — the schedule did not fire as meant", name, st.Crashes, st.Rotations)
			}

			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, s.Trace()); err != nil {
				t.Fatal(err)
			}
			for _, comp := range s.Completions() {
				fmt.Fprintf(&buf, "\ncompletion %+v", comp)
			}
			fmt.Fprintf(&buf, "\nstats %+v\ncheckpoints writes=%d bytes=%d\nmigration bytes=%d\n",
				st, s.CheckpointWrites(), s.CheckpointBytes(), s.MigrationBytes())
			if dir := os.Getenv("PEPSCALE_FP_DUMP"); dir != "" {
				file := filepath.Join(dir, "serve_"+strings.NewReplacer("/", "_", "=", "").Replace(name))
				if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			fmt.Fprintf(&table, "%s %s\n", name, got)
			lines++
			if !*update && got != want[name] {
				t.Errorf("%s: fingerprint %s, committed %q", name, got, want[name])
			}
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", fingerprintTable), table.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d configurations)", fingerprintTable, lines)
	} else if len(want) != lines {
		t.Errorf("committed table has %d configurations, the test runs %d", len(want), lines)
	}
}
