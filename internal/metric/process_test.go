package metric

import (
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sample returns the value of the unlabelled series name in a scrape.
func sample(t *testing.T, scrape, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s is not in the scrape:\n%s", name, scrape)
	return 0
}

var sink [][]byte

// TestProcessSeriesPresentAndMonotone: every process series is in a scrape,
// the counters never step back from one scrape to the next (overlapping
// scrapes included), and the allocation counters follow what the process
// allocated in between.
func TestProcessSeriesPresentAndMonotone(t *testing.T) {
	r := NewRegistry()
	RegisterProcess(r)
	counters := []string{
		"liferaft_process_alloc_bytes_total",
		"liferaft_process_mallocs_total",
		"liferaft_process_gc_cycles_total",
		"liferaft_process_gc_pause_seconds_total",
	}
	first := render(t, r)
	for _, g := range []string{"liferaft_process_heap_inuse_bytes", "liferaft_process_goroutines"} {
		if sample(t, first, g) <= 0 {
			t.Errorf("%s = %v, want > 0", g, sample(t, first, g))
		}
	}
	if runtime.GOOS == "linux" && sample(t, first, "liferaft_process_open_fds") < 3 {
		t.Errorf("liferaft_process_open_fds = %v, want the standard streams at least", sample(t, first, "liferaft_process_open_fds"))
	}
	if want := `liferaft_build_info{goversion="` + runtime.Version() + `",revision="`; !strings.Contains(first, want) {
		t.Errorf("no %s...} series in the scrape:\n%s", want, first)
	}

	const chunk, chunks = 64 << 10, 16
	for i := 0; i < chunks; i++ {
		sink = append(sink, make([]byte, chunk))
	}
	sink = nil
	runtime.GC()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // scrapes may overlap
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.WriteText(io.Discard); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	second := render(t, r)
	for _, c := range counters {
		if a, b := sample(t, first, c), sample(t, second, c); b < a {
			t.Errorf("%s stepped back from %v to %v", c, a, b)
		}
	}
	if grew := sample(t, second, "liferaft_process_alloc_bytes_total") - sample(t, first, "liferaft_process_alloc_bytes_total"); grew < chunk*chunks {
		t.Errorf("liferaft_process_alloc_bytes_total grew by %v across %d B of allocation", grew, chunk*chunks)
	}
	if a, b := sample(t, first, "liferaft_process_mallocs_total"), sample(t, second, "liferaft_process_mallocs_total"); b < a+chunks {
		t.Errorf("liferaft_process_mallocs_total went %v -> %v across %d allocations", a, b, chunks)
	}
	if a, b := sample(t, first, "liferaft_process_gc_cycles_total"), sample(t, second, "liferaft_process_gc_cycles_total"); b < a+1 {
		t.Errorf("liferaft_process_gc_cycles_total went %v -> %v across a forced collection", a, b)
	}
}
