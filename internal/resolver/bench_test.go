package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"sendervalid/internal/dns"
)

// withProcs raises GOMAXPROCS to g for the duration of a sub-benchmark
// so goroutine counts above the host's core count still contend for
// the locks under test (a 1-core CI box would otherwise serialize the
// goroutines and never contest a mutex).
func withProcs(b *testing.B, g int) {
	b.Helper()
	if prev := runtime.GOMAXPROCS(0); g > prev {
		runtime.GOMAXPROCS(g)
		b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// benchNames returns n pre-warmable hostnames backed by a static
// handler serving an A record for each.
func benchNames(b *testing.B, n int) (*Resolver, []string) {
	b.Helper()
	h := newStaticHandler()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%03d.example.com.", i)
		h.add(names[i], dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	}
	r := New(Config{Server: startServer(b, h)})
	ctx := context.Background()
	for _, name := range names {
		if _, err := r.Exchange(ctx, name, dns.TypeA); err != nil {
			b.Fatal(err)
		}
	}
	return r, names
}

// BenchmarkResolverParallel measures the warm-cache Exchange path under
// goroutine contention — the shape bulk SPF evaluation produces, where
// every worker's mechanism lookups funnel through one shared resolver
// and share its read lock. The end-to-end figure for this path is the
// `bulk-spf` workload of `go run ./bench`.
func BenchmarkResolverParallel(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			withProcs(b, g)
			r, names := benchNames(b, 64)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					name := names[w%len(names)]
					for i := 0; i < b.N/g; i++ {
						if _, err := r.Exchange(ctx, name, dns.TypeA); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkSingleflightDedup measures a cold-cache stampede: per
// iteration the cache is flushed and 16 goroutines request the same
// name at once. The wire-queries/op metric shows how many exchanges
// actually reached the server (1.0 = perfect dedup). The `bulk-spf`
// workload's cold first Run is such a stampede.
func BenchmarkSingleflightDedup(b *testing.B) {
	h := newStaticHandler()
	h.add("stampede.example.com", dns.TypeA, &dns.A{Addr: netip.MustParseAddr("192.0.2.9")})
	r := New(Config{Server: startServer(b, h)})
	ctx := context.Background()
	const g = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.cache = newCache(cacheEntries)
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.Exchange(ctx, "stampede.example.com.", dns.TypeA); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(h.queries("A stampede.example.com."))/float64(b.N), "wire-queries/op")
}
