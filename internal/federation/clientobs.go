package federation

import (
	"net"
	"time"

	"liferaft/internal/metric"
)

// HopMetrics are the per-peer hop metric families on one registry. Every
// instrumented client of a daemon shares them, one series per peer: the
// daemon registers them once with NewHopMetrics and hands them to each
// client's Instrument.
type HopMetrics struct {
	inflight *metric.GaugeVec
	seconds  *metric.HistogramVec
	errors   *metric.CounterVec
	wire     *metric.CounterVec
}

// NewHopMetrics registers the hop families on reg. Call it once per
// registry: a family name registers only once.
func NewHopMetrics(reg *metric.Registry) *HopMetrics {
	return &HopMetrics{
		inflight: reg.NewGaugeVec("liferaft_federation_client_inflight",
			"Requests in flight from this daemon to the peer (waiting for the connection included).",
			[]string{"peer"}, metric.VecOpts{}),
		seconds: reg.NewHistogramVec("liferaft_federation_rpc_seconds",
			"Client-side wall time of one request to the peer, by kind (archive, extract, match), failures included.",
			[]string{"peer", "kind"}, metric.ExpBuckets(1e-4, 4, 10), metric.VecOpts{}),
		errors: reg.NewCounterVec("liferaft_federation_rpc_errors_total",
			"Requests to the peer that returned an error, by kind: connection failures, timeouts, cancellations and errors the peer answered with.",
			[]string{"peer", "kind"}, metric.VecOpts{}),
		wire: reg.NewCounterVec("liferaft_federation_wire_bytes_total",
			"Bytes the connection to the peer carried, by direction (sent, received), handshakes included.",
			[]string{"peer", "dir"}, metric.VecOpts{}),
	}
}

// clientObs is one client's handle on the hop families: its peer's series.
// The byte counters are resolved once, at Instrument: they are written on
// every read and write of the connection, and peer names are bounded.
type clientObs struct {
	*HopMetrics
	peer           string
	sent, received *metric.Counter
}

// Instrument reports the client's requests on m under the given peer
// name: requests in flight, request latency by kind, errors by kind and
// the bytes its connection carries each way.
// Call it before the client's first request. Peer names are operator
// configuration (liferaftd -peers), so the series count is bounded. Nil
// metrics leave the client uninstrumented: its connection is not wrapped
// to count bytes, and its requests record nothing.
func (c *Client) Instrument(m *HopMetrics, peer string) {
	if m != nil {
		c.obs = &clientObs{HopMetrics: m, peer: peer,
			sent: m.wire.With(peer, "sent"), received: m.wire.With(peer, "received")}
		c.obs.inflight.With(peer) // scrapes show the peer at 0 before its first request
	}
}

// begin counts a request of the given kind in; the returned function counts
// it out with its outcome. On an uninstrumented client (nil o) both are
// no-ops.
func (o *clientObs) begin(kind string) func(error) {
	if o == nil {
		return nopDone
	}
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

// nopDone is what begin returns on an uninstrumented client.
func nopDone(error) {}

// countingConn is a client connection that counts the bytes it writes and
// reads on its peer's series.
type countingConn struct {
	net.Conn
	o *clientObs
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.o.received.Add(float64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.o.sent.Add(float64(n))
	return n, err
}
