package federation

import (
	"sync"
	"time"

	"liferaft/internal/metric"
)

// hopFamilies are the per-peer hop metric families on one registry. Every
// instrumented client of a daemon shares them, one series per peer.
type hopFamilies struct {
	inflight *metric.GaugeVec
	seconds  *metric.HistogramVec
	errors   *metric.CounterVec
}

// hopRegistered maps a registry to its hop families: a family registers
// once per registry, while Instrument runs once per peer. Filled at start-up.
var (
	hopMu         sync.Mutex
	hopRegistered = make(map[*metric.Registry]*hopFamilies)
)

func hopFamiliesOn(reg *metric.Registry) *hopFamilies {
	hopMu.Lock()
	defer hopMu.Unlock()
	f := hopRegistered[reg]
	if f == nil {
		f = &hopFamilies{
			inflight: reg.NewGaugeVec("liferaft_federation_client_inflight",
				"Requests in flight from this daemon to the peer (waiting for the connection included).",
				[]string{"peer"}, metric.VecOpts{}),
			seconds: reg.NewHistogramVec("liferaft_federation_rpc_seconds",
				"Client-side wall time of one request to the peer, by kind (archive, extract, match), failures included.",
				[]string{"peer", "kind"}, metric.ExpBuckets(1e-4, 4, 10), metric.VecOpts{}),
			errors: reg.NewCounterVec("liferaft_federation_rpc_errors_total",
				"Requests to the peer that returned an error, by kind: connection failures, timeouts, cancellations and errors the peer answered with.",
				[]string{"peer", "kind"}, metric.VecOpts{}),
		}
		hopRegistered[reg] = f
	}
	return f
}

// clientObs is one client's handle on the hop families: its peer's series.
type clientObs struct {
	*hopFamilies
	peer string
}

// Instrument reports the client's requests on reg under the given peer
// name: requests in flight, request latency by kind and errors by kind.
// Call it before the client's first request. Peer names are operator
// configuration (liferaftd -peers), so the series count is bounded. A nil
// registry leaves the client uninstrumented.
func (c *Client) Instrument(reg *metric.Registry, peer string) {
	if reg != nil {
		c.obs = &clientObs{hopFamilies: hopFamiliesOn(reg), peer: peer}
		c.obs.inflight.With(peer) // scrapes show the peer at 0 before its first request
	}
}

// begin counts a request of the given kind in; the returned function counts
// it out with its outcome.
func (o *clientObs) begin(kind string) func(error) {
	inflight := o.inflight.With(o.peer)
	inflight.Inc()
	start := time.Now()
	return func(err error) {
		inflight.Dec()
		o.seconds.With(o.peer, kind).Observe(time.Since(start).Seconds())
		if err != nil {
			o.errors.With(o.peer, kind).Inc()
		}
	}
}
