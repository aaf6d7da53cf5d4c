package obs

import (
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Config is the command-line observability surface shared by the cmd/
// tools: where to write the JSONL trace and the metrics dump, and the
// standard Go profiling hooks.
type Config struct {
	// TracePath receives the JSONL event stream ("" disables, "-" means
	// stdout).
	TracePath string
	// MetricsPath receives the metrics at Close: the human-readable
	// summary table when "-" (stdout), the Prometheus text exposition
	// when a file path ("" disables).
	MetricsPath string
	// CPUProfile / MemProfile are pprof profile output paths.
	CPUProfile string
	MemProfile string
	// PprofAddr, when non-empty, serves net/http/pprof on this address
	// for the lifetime of the process.
	PprofAddr string
}

// Session is the live observability state of one command run. Recorder
// and Registry are nil when the corresponding output is disabled, so
// they can be passed straight into solver options (whose emission sites
// are nil-guarded).
type Session struct {
	// Recorder receives solver events (nil when tracing and metrics are
	// both off).
	Recorder Recorder
	// Registry aggregates metrics (nil when -metrics is off).
	Registry *Registry

	jsonl     *JSONL
	traceFile *os.File
	metrics   string
	cpuFile   *os.File
	memPath   string
}

// Start opens the sinks and profiling hooks described by cfg. Always
// Close the session (even on error paths of the surrounding command) to
// flush traces and write profiles.
func Start(cfg Config) (*Session, error) {
	s := &Session{metrics: cfg.MetricsPath, memPath: cfg.MemProfile}
	// Only live sinks reach Combine: a nil *JSONL or *Stats in a
	// Recorder interface would not compare equal to nil.
	var trace, stats Recorder
	if cfg.MetricsPath != "" {
		s.Registry = NewRegistry()
		stats = NewStats(s.Registry)
	}
	if cfg.TracePath != "" {
		w := os.Stdout
		if cfg.TracePath != "-" {
			f, err := os.Create(cfg.TracePath)
			if err != nil {
				return nil, fmt.Errorf("obs: trace: %w", err)
			}
			s.traceFile = f
			w = f
		}
		s.jsonl = NewJSONL(w)
		trace = s.jsonl
	}
	s.Recorder = Combine(trace, stats)

	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		s.cpuFile = f
	}
	if cfg.PprofAddr != "" {
		//solverlint:allow goroleak process-lifetime pprof listener: debug-only server with no shutdown path by design
		go func() {
			// The server lives for the process; an unusable address is
			// reported but not fatal.
			if err := http.ListenAndServe(cfg.PprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "obs: pprof server:", err)
			}
		}()
	}
	return s, nil
}

// Close flushes the trace, dumps metrics, and finalises profiles.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.jsonl != nil {
		keep(s.jsonl.Flush())
	}
	if s.traceFile != nil {
		keep(s.traceFile.Close())
	}
	if s.Registry != nil && s.metrics != "" {
		if s.metrics == "-" {
			keep(s.Registry.WriteSummary(os.Stdout))
		} else {
			f, err := os.Create(s.metrics)
			if err != nil {
				keep(err)
			} else {
				keep(s.Registry.WritePrometheus(f))
				keep(f.Close())
			}
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
	}
	if s.memPath != "" {
		f, err := os.Create(s.memPath)
		if err != nil {
			keep(err)
		} else {
			runtime.GC() // get up-to-date heap statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	return firstErr
}
