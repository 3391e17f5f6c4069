package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: both files exist and are non-empty after
// stop, and an uncreatable path fails Start without leaving a CPU profile
// running (a second Start must succeed).
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if _, err := Start(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("Start with an uncreatable cpuprofile path succeeded")
	}
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (err %v)", p, err)
		}
	}
	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
