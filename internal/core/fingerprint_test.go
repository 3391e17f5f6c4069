package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pepscale/internal/cluster"
)

// fingerprintTable is the committed table TestEngineFingerprints compares
// against: one "<configuration> <sha256>" line per engine configuration.
// Regenerate — only for a change that means to move virtual time, trace bytes
// or hits — with:
//
//	go test ./internal/core/ -run TestEngineFingerprints -update
const fingerprintTable = "engine_fingerprints.txt"

// fingerprint is the SHA-256 of everything a run reports: the Chrome-trace
// export, the metrics, every query's hit list and the recovery summary. Floats
// print in Go's shortest round-trip form, so equal hashes mean equal bits.
// With PEPSCALE_FP_DUMP=dir set, the hashed bytes are also written to
// dir/<name>, which is how to find out what moved when a line differs.
func fingerprint(t *testing.T, name string, res *Result, rec *Recovery) string {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(exportTrace(t, res))
	fmt.Fprintf(&buf, "\nmetrics %+v\n", res.Metrics)
	for _, qr := range res.Queries {
		fmt.Fprintf(&buf, "query %+v\n", qr)
	}
	if rec != nil {
		for _, a := range rec.Attempts {
			fmt.Fprintf(&buf, "attempt ranks=%d failed=%v run=%v\n", a.Ranks, a.FailedRanks, a.RunSec)
		}
		fmt.Fprintf(&buf, "checkpoints writes=%d bytes=%d\n", rec.CheckpointWrites, rec.CheckpointBytes)
	}
	if dir := os.Getenv("PEPSCALE_FP_DUMP"); dir != "" {
		file := filepath.Join(dir, strings.NewReplacer("/", "_", "=", "").Replace(name))
		if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// readFingerprints loads a committed table.
func readFingerprints(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestEngineFingerprints pins absolute bytes, not just run-to-run agreement:
// every engine and recovery driver must reproduce the committed fingerprint
// of its trace, metrics, hits and recovery summary. The determinism tests
// would pass a refactor that moved a Get, a collective or a checkpoint
// consistently; this one does not.
func TestEngineFingerprints(t *testing.T) {
	in := testInput(t, 60, 12)
	static, _, err := RunElastic(clusterCfg(4), in, testOptions(), ElasticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := static.Metrics.RunSec

	type runFn func(opt Options) (*Result, *Recovery, error)
	engine := func(algo Algorithm, p, groups int) runFn {
		return func(opt Options) (*Result, *Recovery, error) {
			opt.Groups = groups
			res, err := Run(algo, tracedCfg(p), in, opt)
			return res, nil, err
		}
	}
	elastic := func(eopt ElasticOptions) runFn {
		return func(opt Options) (*Result, *Recovery, error) {
			cfg := elasticCfg()
			cfg.Ranks = 4
			cfg.Trace = true
			return RunElastic(cfg, in, opt, eopt)
		}
	}
	crash := func(rank, call int) *cluster.FaultPlan {
		return &cluster.FaultPlan{CrashAtCall: map[int]int{rank: call}}
	}
	spot := cluster.SpotMembershipPlan(4, 2, 4, horizon*0.9, 11)
	churn := &cluster.MembershipPlan{Universe: 6, Initial: 4, Events: []cluster.MemberEvent{
		{TimeSec: horizon * 0.05, Join: []int{4}},
		{TimeSec: horizon * 0.4, Join: []int{5}, Leave: []int{0}},
	}}

	configs := []struct {
		name string
		run  runFn
		// attempts is the driver attempt count the fault plans must produce
		// (0: a plain Run, no recovery summary).
		attempts int
	}{
		{"run/a/p=1", engine(AlgoA, 1, 1), 0},
		{"run/a/p=3", engine(AlgoA, 3, 1), 0},
		{"run/a/p=8", engine(AlgoA, 8, 1), 0},
		// At p = 16, 4 ranks hold none of the 12 queries and walk no block.
		{"run/a/p=16", engine(AlgoA, 16, 1), 0},
		{"run/a-nomask/p=4", engine(AlgoANoMask, 4, 1), 0},
		{"run/a-nomask/p=16", engine(AlgoANoMask, 16, 1), 0},
		{"run/b/p=1", engine(AlgoB, 1, 1), 0},
		{"run/b/p=4", engine(AlgoB, 4, 1), 0},
		{"run/b/p=5", engine(AlgoB, 5, 1), 0},
		{"run/subgroup/p=4,g=2", engine(AlgoSubGroup, 4, 2), 0},
		{"run/subgroup/p=6,g=3", engine(AlgoSubGroup, 6, 3), 0},
		{"run/subgroup/p=4,g=1", engine(AlgoSubGroup, 4, 1), 0},
		{"run/subgroup/p=16,g=2", engine(AlgoSubGroup, 16, 2), 0},
		{"run/master-worker/p=4", engine(AlgoMasterWorker, 4, 1), 0},
		{"run/candidate/p=4", engine(AlgoCandidate, 4, 1), 0},

		{"recovery/b/crash", func(opt Options) (*Result, *Recovery, error) {
			return RunWithRecovery(AlgoB, tracedCfg(4), in, opt, []*cluster.FaultPlan{crash(2, 12)}, 0)
		}, 2},

		{"elastic/static", elastic(ElasticOptions{}), 1},
		{"elastic/static/crash", elastic(ElasticOptions{EpochSteps: 2,
			Faults: []*cluster.FaultPlan{{Seed: 11, CrashAtCall: map[int]int{2: 9}, DetectSec: 0.005}}}), 2},
		{"elastic/spot/epoch=1", elastic(ElasticOptions{Membership: spot, EpochSteps: 1}), 1},
		{"elastic/spot/epoch=2", elastic(ElasticOptions{Membership: spot, EpochSteps: 2}), 1},
		{"elastic/autoscale", elastic(ElasticOptions{Membership: cluster.AutoscaleMembershipPlan(4, 3, horizon*0.4, 3)}), 1},
		{"elastic/join-leave", elastic(ElasticOptions{Membership: &cluster.MembershipPlan{Universe: 6, Initial: 4,
			Events: []cluster.MemberEvent{
				{TimeSec: horizon * 0.05, Join: []int{4}, Leave: []int{1}},
				{TimeSec: horizon * 0.3, Join: []int{5}},
				{TimeSec: horizon * 0.6, Join: []int{1}, Leave: []int{4}},
			}}}), 1},
		{"elastic/crash-initial-rank", elastic(ElasticOptions{Membership: churn,
			Faults: []*cluster.FaultPlan{crash(2, 15)}}), 2},
		{"elastic/crash-joiner", elastic(ElasticOptions{Membership: churn,
			Faults: []*cluster.FaultPlan{{CrashAtTime: map[int]float64{4: horizon * 0.2}}}}), 2},
		{"elastic/spot/crash-mid-run", elastic(ElasticOptions{Membership: spot,
			Faults: []*cluster.FaultPlan{{CrashAtTime: map[int]float64{1: horizon * 0.5}}}}), 2},
	}

	var table bytes.Buffer
	var want map[string]string
	if !*update {
		want = readFingerprints(t, filepath.Join("testdata", fingerprintTable))
	}
	lines := 0
	for _, c := range configs {
		// The "peptide/" prefix names the one scan kernel; it keeps the
		// committed lines stable.
		name := ScanModePeptideMajor + "/" + c.name
		res, rec, err := c.run(testOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.attempts > 0 && len(rec.Attempts) != c.attempts {
			t.Errorf("%s: %d attempts, want %d — a fault plan did not fire as meant", name, len(rec.Attempts), c.attempts)
		}
		got := fingerprint(t, name, res, rec)
		fmt.Fprintf(&table, "%s %s\n", name, got)
		lines++
		if want != nil && got != want[name] {
			t.Errorf("%s: fingerprint %s, committed %q", name, got, want[name])
		}
	}
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", fingerprintTable), table.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d configurations)", fingerprintTable, lines)
	} else if len(want) != lines {
		t.Errorf("committed table has %d configurations, the test runs %d", len(want), lines)
	}
}
