package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	root := NewRoot("pipeline")
	gen := root.Start("generate")
	gen.Count("networks", 2)
	gen.End()
	inf := root.Start("inference")
	n1 := inf.Start("net-1")
	n1.End()
	n2 := inf.Start("net-2")
	n2.End()
	inf.End()
	root.End()

	kids := root.Children()
	if len(kids) != 2 {
		t.Fatalf("root children = %d, want 2", len(kids))
	}
	if kids[0].Name() != "generate" || kids[1].Name() != "inference" {
		t.Fatalf("child order = %q, %q; want generate, inference", kids[0].Name(), kids[1].Name())
	}
	grand := kids[1].Children()
	if len(grand) != 2 || grand[0].Name() != "net-1" || grand[1].Name() != "net-2" {
		t.Fatalf("inference children wrong: %+v", grand)
	}
	if len(grand[0].Children()) != 0 {
		t.Fatalf("leaf span has children")
	}
	if got := kids[0].Counter("networks"); got != 2 {
		t.Fatalf("generate.networks = %v, want 2", got)
	}
	if !root.Ended() || root.Duration() <= 0 {
		t.Fatalf("root not properly ended: ended=%v dur=%v", root.Ended(), root.Duration())
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	s := NewRoot("x")
	time.Sleep(time.Millisecond)
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatalf("second End changed duration: %v -> %v", d, s.Duration())
	}
}

func TestSpanAllocDelta(t *testing.T) {
	s := NewRoot("alloc")
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	s.End()
	if len(sink) != 64 {
		t.Fatal("sink lost")
	}
	// runtime/metrics allocation totals are flushed lazily from per-P
	// caches, so the delta can trail the true figure slightly; half the
	// allocated volume is a safe lower bound.
	if s.AllocBytes() < 32*4096 {
		t.Fatalf("alloc delta = %d, want >= %d", s.AllocBytes(), 32*4096)
	}
}

// TestRequestRootSamplesNoAlloc: a request tree allocates like any
// other but records no allocation delta, at its root or below, while it
// still times every span.
func TestRequestRootSamplesNoAlloc(t *testing.T) {
	s := NewRequestRoot("request")
	c := s.Start("stage")
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	c.End()
	s.End()
	if len(sink) != 64 {
		t.Fatal("sink lost")
	}
	if s.AllocBytes() != 0 || c.AllocBytes() != 0 {
		t.Fatalf("request tree alloc = %d (root), %d (stage), want 0", s.AllocBytes(), c.AllocBytes())
	}
	if s.Duration() <= 0 || c.Duration() <= 0 || len(s.Children()) != 1 {
		t.Fatalf("request tree lost its timing: root %v, stage %v, %d children", s.Duration(), c.Duration(), len(s.Children()))
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	child := s.Start("child")
	if child != nil {
		t.Fatalf("nil.Start returned non-nil")
	}
	s.Count("x", 1)
	s.End()
	if s.Duration() != 0 || s.AllocBytes() != 0 || s.Counter("x") != 0 {
		t.Fatal("nil span reported non-zero state")
	}
	if s.Children() != nil || s.Counters() != nil {
		t.Fatal("nil span reported non-nil collections")
	}
	if s.Name() != "" || s.Ended() {
		t.Fatal("nil span reported identity")
	}
}

// TestSpanConcurrentChildren mirrors the parallel pipeline's span usage:
// worker goroutines each open a per-item child under a shared stage span,
// nest grandchildren, and bump counters, while other goroutines
// concurrently read every accessor. The assertions are secondary — the
// point is that -race stays silent.
func TestSpanConcurrentChildren(t *testing.T) {
	root := NewRoot("stage")
	const writers = 8
	const perWriter = 50
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, c := range root.Children() {
					_ = c.Name()
					_ = c.Duration()
					_ = c.Ended()
					_ = c.Counters()
					_ = c.Counter("months")
					_ = c.AllocBytes()
					_ = c.Children()
				}
				_ = root.Duration()
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				net := root.Start("network")
				for m := 0; m < 3; m++ {
					mo := net.Start("month")
					mo.Count("events", 1)
					mo.End()
				}
				net.Count("months", 3)
				net.End()
			}
		}()
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	root.End()

	kids := root.Children()
	if len(kids) != writers*perWriter {
		t.Fatalf("children = %d, want %d", len(kids), writers*perWriter)
	}
	for _, c := range kids {
		if !c.Ended() || c.Counter("months") != 3 || len(c.Children()) != 3 {
			t.Fatalf("child %q incomplete: ended=%v months=%v grandchildren=%d",
				c.Name(), c.Ended(), c.Counter("months"), len(c.Children()))
		}
	}
}

// TestSpanConcurrency exercises concurrent child starts and counter adds;
// run with -race.
func TestSpanConcurrency(t *testing.T) {
	root := NewRoot("concurrent")
	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := root.Start("child")
				c.Count("n", 1)
				c.End()
				root.Count("total", 1)
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Children()); got != workers*perWorker {
		t.Fatalf("children = %d, want %d", got, workers*perWorker)
	}
	if got := root.Counter("total"); got != workers*perWorker {
		t.Fatalf("total = %v, want %d", got, workers*perWorker)
	}
}
