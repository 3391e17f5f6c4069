// Package prof is the host-side profiling entry point of the command-line
// tools: the -cpuprofile / -memprofile flags of pepid and paperbench. The
// profiles describe the simulation host (where a user's wall-clock time
// goes), never the virtual machine — virtual time has the trace for that.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths of a command line.
type Flags struct {
	cpu, mem *string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a host CPU profile of the whole run (go tool pprof)"),
		mem: fs.String("memprofile", "", "write a host allocation profile at exit (go tool pprof -sample_index=alloc_space)"),
	}
}

// Start is the package-level Start on the parsed flag values.
func (f *Flags) Start() (stop func() error, err error) {
	return Start(*f.cpu, *f.mem)
}

// Start begins CPU profiling into cpuPath and arranges a heap profile to be
// written to memPath; an empty path disables that profile. The returned stop
// function ends the CPU profile, writes the heap profile, and closes both
// files; callers run it on every exit path and report its error when they
// have none of their own. On error nothing is left open.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				first = fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			if err := writeHeap(memPath); err != nil && first == nil {
				first = fmt.Errorf("memprofile: %w", err)
			}
		}
		return first
	}, nil
}

// writeHeap writes the allocation profile (every sample since process start,
// so one-shot tools see what they allocated, not just what is still live).
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation statistics
	werr := pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
