package serve_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"mpa/internal/serve"
)

// warmEndpoint is one /v1 read of the warm-serve benchmark.
type warmEndpoint struct{ name, path string }

// warmEndpoints are the query endpoints of loadgen.DefaultMix, each
// asked for one fixed key of the shared test framework.
func warmEndpoints(tb testing.TB) []warmEndpoint {
	f := testFramework(tb)
	nm := "network=" + f.Dataset().Networks()[1] + "&month=2014-02"
	return []warmEndpoint{
		{"rank", "/v1/rank"},
		{"network", "/v1/network?" + nm},
		{"predict", "/v1/predict?" + nm},
		{"causal", "/v1/causal?practice=" + f.RankPractices()[0].Metric},
		{"report", "/v1/report/table3"},
		{"manifest", "/v1/manifest"},
	}
}

// warmRead returns one warm read of path through s's handler: the whole
// request path (instrumentation, routing, memo hit, encoding) without a
// socket. The first call answers cold and fills the memos.
func warmRead(tb testing.TB, s *serve.Server, path string) func() {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	read := func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			tb.Fatalf("%s: status %d (%s)", path, w.Code, w.Body.Bytes())
		}
	}
	read()
	return read
}

// BenchmarkServeWarm times one warm read per endpoint on a one-org
// daemon over the 24-network test framework.
func BenchmarkServeWarm(b *testing.B) {
	s := oneOrgServer(b, testFramework(b), serve.Config{})
	for _, ep := range warmEndpoints(b) {
		b.Run(ep.name, func(b *testing.B) {
			read := warmRead(b, s, ep.path)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read()
			}
		})
	}
}

// warmAllocBudget caps allocations per warm read of every endpoint,
// about 20-25% above the counts measured with Go 1.24 on linux/amd64:
// rank 29, network 36, predict 36, causal 33, report 31, manifest 109.
// The headroom covers -race builds (CI's test step), where sync.Pool
// drops entries at random: there the counts read 2-6 higher. The first
// five write bytes stored with the answer; the manifest is encoded per
// read, and it lists the stages and report digests of the cold reads
// before it, so its count depends on the endpoints read first. Before
// warm reads wrote stored bodies and request spans stopped sampling the
// heap, the same test measured rank 48, network 57, predict 60, causal
// 53, report 164 and manifest 124; before /v1/manifest stopped embedding
// the process registry and flight recorder, rank 59 and manifest
// 605-712.
var warmAllocBudget = map[string]float64{
	"rank": 36, "network": 45, "predict": 45, "causal": 41, "report": 38, "manifest": 135,
}

// TestAllocBudgetServeWarm pins the allocations of a warm read of each
// endpoint. CI fails the build when exceeded.
func TestAllocBudgetServeWarm(t *testing.T) {
	s := oneOrgServer(t, testFramework(t), serve.Config{})
	for _, ep := range warmEndpoints(t) {
		budget, ok := warmAllocBudget[ep.name]
		if !ok {
			t.Fatalf("no allocation budget for warm %s reads", ep.name)
		}
		avg := testing.AllocsPerRun(50, warmRead(t, s, ep.path))
		t.Logf("%s: %.1f allocs/read", ep.name, avg)
		if avg > budget {
			t.Errorf("warm %s read: %.1f allocs exceed budget %.0f", ep.name, avg, budget)
		}
	}
}
