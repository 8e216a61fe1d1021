package main

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"time"

	"wazabee/internal/bitstream"
	"wazabee/internal/capture"
	"wazabee/internal/chip"
	"wazabee/internal/core"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

const (
	sniffSPS     = 8
	sniffChannel = 14
	// sniffSNRdB is wazabeed's default attacker link SNR.
	sniffSNRdB = 22
	// sniffChunk is the slab size the capture is pushed in.
	sniffChunk = 512
	// sniffCaptures is how many distinct captures set-up builds; the
	// timed phase cycles through them. About one in eighty fails to
	// decode at 22 dB, so 64 keeps the decode rate of one seed close to
	// that of the next.
	sniffCaptures = 64
	// sniffGap is the noise before and after each frame: 2500 chip
	// periods (1.25 ms) each side, so sync search over noise dominates.
	sniffGap = 2500 * sniffSPS
	// sniffBlock is how many captures one throughput window spans.
	sniffBlock = 64
)

// sniffCapture is one pre-generated capture and the frame on its air.
type sniffCapture struct {
	iq   []complex128
	psdu []byte
}

type sniff struct {
	reg  *obs.Registry
	rxs  *core.RxStream
	caps []sniffCapture
}

func setupSniff(seed int64) (workload, error) {
	w := &sniff{reg: obs.NewRegistry()}
	xbee, err := ieee802154.NewPHY(sniffSPS)
	if err != nil {
		return nil, err
	}
	xbee.Obs = w.reg
	model := chip.CC1352R1()
	rx, err := model.NewWazaBeeReceiver(sniffSPS)
	if err != nil {
		return nil, err
	}
	rx.Obs = w.reg
	w.rxs = rx.Stream()
	freq, err := ieee802154.ChannelFrequencyMHz(sniffChannel)
	if err != nil {
		return nil, err
	}
	ppm := model.CrystalPPM + chip.RZUSBStick().CrystalPPM

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sniffCaptures; i++ {
		frame := ieee802154.NewDataFrame(uint8(i), xbeePAN, xbeeCoord, xbeeSensor,
			zigbee.SensorPayload(uint16(rng.Intn(1<<16))), false)
		psdu, err := frame.Encode()
		if err != nil {
			return nil, err
		}
		ppdu, err := ieee802154.NewPPDU(psdu)
		if err != nil {
			return nil, err
		}
		sig, err := xbee.Modulate(ppdu)
		if err != nil {
			return nil, err
		}
		m, err := radio.NewMedium(sniffSPS*ieee802154.ChipRate, rng.Int63())
		if err != nil {
			return nil, err
		}
		m.Obs = w.reg
		iq, err := m.Deliver(sig, freq, freq, radio.Link{
			SNRdB:       sniffSNRdB,
			CFOHz:       (m.Rand().Float64()*2 - 1) * ppm * freq,
			LeadSamples: sniffGap,
			LagSamples:  sniffGap,
		})
		if err != nil {
			return nil, err
		}
		w.caps = append(w.caps, sniffCapture{iq: iq, psdu: psdu})
	}
	return w, nil
}

// sniffConsumer is the subscriber goroutine's side of the hub: the
// pcap tee and the ZEP encoder, with the checks on what they receive.
type sniffConsumer struct {
	w        *sniff
	tr       *tracer
	pcap     *capture.Subscription
	zep      *capture.Subscription
	pw       *capture.PCAPWriter
	done     chan struct{} // one send per record handled
	out      outcome       // failures and latencies seen by the consumer
	nextSeq  uint32
	decoded  int
	received int
}

func (c *sniffConsumer) run() {
	for {
		rec, ok := c.pcap.Recv()
		if !ok {
			return
		}
		c.out.latency = append(c.out.latency, float64(time.Since(rec.Origin).Nanoseconds())/1e3)
		c.check(rec)
		c.tr.begin("capture.pcap_write")
		err := c.pw.WriteRecord(rec)
		c.tr.end()
		if err != nil {
			c.out.fail("pcap write: %v", err)
		}
		zrec, ok := c.zep.Recv()
		switch {
		case !ok || zrec.Seq != rec.Seq:
			c.out.fail("zep subscriber got seq %d, pcap subscriber %d", zrec.Seq, rec.Seq)
		case len(zrec.PSDU) == 0:
			// Nothing decoded: wazabeed sends no datagram for it.
		default:
			c.tr.begin("capture.zep_encode")
			_, err := capture.EncodeZEPRecord(zrec, 1)
			c.tr.end()
			if err != nil {
				c.out.fail("zep encode: %v", err)
			}
		}
		c.done <- struct{}{}
	}
}

// check verifies one record: in sequence, and — when its FCS holds —
// carrying exactly the frame that was on the air.
func (c *sniffConsumer) check(rec capture.Record) {
	c.nextSeq++
	c.received++
	if rec.Seq != c.nextSeq {
		c.out.fail("record seq %d arrived, want %d", rec.Seq, c.nextSeq)
		c.nextSeq = rec.Seq
	}
	if rec.Decoder != "wazabee" || !bitstream.CheckFCS(rec.PSDU) {
		return // sync loss or corrupted frame: a modelled radio outcome
	}
	want := c.w.caps[int(rec.Seq-1)%len(c.w.caps)].psdu
	if !bytes.Equal(rec.PSDU, want) {
		c.out.fail("record %d: FCS-valid PSDU differs from the frame on air", rec.Seq)
		return
	}
	c.decoded++
}

// measure pushes captures through the daemon pipeline in a closed loop
// until d has elapsed, finishing the current block of captures.
func (w *sniff) measure(d time.Duration, traced bool) *outcome {
	o := &outcome{tr: newTracer(traced)}
	tr := o.tr
	hub := capture.NewHub(w.reg)
	hub.Log = obs.NewLogger(io.Discard, 1)
	hub.Flight = obs.NewFlight(64)
	c := &sniffConsumer{w: w, tr: newTracer(traced), done: make(chan struct{})}
	var err error
	if c.pcap, err = hub.Subscribe("pcap", 4); err == nil {
		c.zep, err = hub.Subscribe("zep", 4)
	}
	if err == nil {
		c.pw, err = capture.NewPCAPWriter(io.Discard)
	}
	if err != nil {
		o.fail("hub set-up: %v", err)
		return o
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.run()
	}()

	rc0 := readRuntime()
	before := w.reg.Snapshot()
	at := time.Unix(1_600_000_000, 0)
	var seq uint64
	start := time.Now()
	for more := true; more; more = time.Since(start) < d {
		o.calibrate()
		win := startWindow()
		var air float64
		for k := 0; k < sniffBlock; k++ {
			capt := w.caps[int(seq)%len(w.caps)]
			seq++
			o.attempted++
			var t0 time.Time
			for off := 0; off < len(capt.iq); off += sniffChunk {
				end := min(off+sniffChunk, len(capt.iq))
				if end == len(capt.iq) {
					t0 = time.Now()
				}
				tr.begin("core.rx_push")
				if tr.on {
					n := allocCount()
					w.rxs.Push(capt.iq[off:end])
					o.pushAllocs += allocCount() - n
					o.pushes++
				} else {
					w.rxs.Push(capt.iq[off:end])
				}
				tr.end()
			}
			tr.begin("core.rx_flush")
			dem, st, err := w.rxs.Flush()
			tr.end()
			if err != nil {
				dem = nil // not decoded: published as a raw record, as wazabeed does
			}
			secs := float64(len(capt.iq)) / (sniffSPS * ieee802154.ChipRate)
			air += secs
			o.airUS += secs * 1e6
			tr.begin("capture.record")
			rec := capture.NewStatsRecord(at.Add(time.Duration(seq)*5*time.Millisecond), sniffChannel, seq, capt.iq, dem, st, sniffSNRdB)
			rec.Origin = t0
			tr.end()
			tr.begin("capture.publish")
			if n := hub.Publish(rec); n != 2 {
				o.fail("record %d offered to %d subscribers, want 2", seq, n)
			}
			tr.end()
			tr.begin("capture.consumer_wait")
			<-c.done
			tr.end()
		}
		o.rates = append(o.rates, air/win.busy().Seconds())
	}
	o.wall = time.Since(start)
	subs := []*capture.Subscription{c.pcap, c.zep}
	stats := []capture.SubStats{c.pcap.Stats(), c.zep.Stats()}
	hub.Close()
	wg.Wait()
	for _, s := range subs {
		s.Close()
	}

	o.failed += c.out.failed
	o.failures = append(o.failures, c.out.failures...)
	o.latency = c.out.latency
	for end := sniffBlock; end <= len(o.latency); end += sniffBlock {
		o.latEnds = append(o.latEnds, end) // one window per block of captures
	}
	if c.received != o.attempted {
		o.fail("pcap subscriber received %d of %d records", c.received, o.attempted)
	}
	if stats[0].Dropped != 0 {
		o.fail("pcap subscriber dropped %d records", stats[0].Dropped)
	}
	o.success = ratio(float64(c.decoded), float64(o.attempted))
	if o.success < minValidRate {
		o.fail("decode rate %.4f below %.2f", o.success, minValidRate)
	}
	if traced {
		after := w.reg.Snapshot()
		frames := tr.count("core.rx_flush")
		rxLayers(o, frames, before, after)
		o.layer("capture.record_us", perUS(tr.self("capture.record"), frames))
		o.layer("capture.publish_us", perUS(tr.self("capture.publish"), frames))
		o.layer("capture.queue_wait_us", ratio(1e6*histSum(after, before, obs.LatencySecondsMetric, "stage", "queue", "subscriber", "pcap"), float64(frames)))
		o.layer("capture.pcap_write_us", perUS(c.tr.self("capture.pcap_write"), c.tr.count("capture.pcap_write")))
		o.layer("capture.zep_encode_us", perUS(c.tr.self("capture.zep_encode"), c.tr.count("capture.zep_encode")))
		var dropped, offered uint64
		for _, s := range stats {
			dropped += s.Dropped
			offered += s.Offered
		}
		o.layer("capture.dropped_ratio", ratio(float64(dropped), float64(offered)))
		o.runtimeLayers(rc0)
	}
	return o
}
