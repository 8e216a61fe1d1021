package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"wazabee/internal/bitstream"
	"wazabee/internal/chip"
	"wazabee/internal/core"
	"wazabee/internal/experiment"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// The paper's XBee network: sensor 0x0063 reports to coordinator 0x0042
// on PAN 0x1234.
const (
	xbeePAN    = 0x1234
	xbeeCoord  = 0x0042
	xbeeSensor = 0x0063
)

// framesPerCell is how many frames each (chip, side, channel) cell
// sends per pass of the pivot-link workload: 64 cells × 6 frames, a
// pass of about 2.5 s on one core.
const framesPerCell = 6

// minValidRate is the floor below which a pivot-link or sniff run fails
// its output check: Table III measures 97.5–99.4% valid frames, and a
// decoder that breaks falls far below.
const minValidRate = 0.9

// linkCell is one Table III cell: a chip, a side and a channel, with the
// radios of both ends.
type linkCell struct {
	side    experiment.Side
	freqMHz float64

	// Transmission side: the diverted BLE chip sends, the 802.15.4
	// stick demodulates.
	bleTX *core.Transmitter
	// Reception side: the stick sends, the diverted chip's streaming
	// receiver decodes.
	rxs *core.RxStream
	// stick is the legitimate 802.15.4 radio at the other end.
	stick *ieee802154.PHY

	rxNF, rxRej, ppm float64
}

// linkFrame is one frame of the pass, with what was sent.
type linkFrame struct {
	cell *linkCell
	seed int64
	ppdu *ieee802154.PPDU
	psdu []byte // the PSDU put on the air
	want ieee802154.MACFrame
}

type pivotLink struct {
	cfg    experiment.Config
	reg    *obs.Registry
	wifi   []radio.WiFiInterferer
	cells  []*linkCell
	frames []*linkFrame
}

func setupPivotLink(seed int64) (workload, error) {
	cfg := experiment.DefaultConfig()
	w := &pivotLink{cfg: cfg, reg: obs.NewRegistry()}
	for _, ch := range []int{6, 11} {
		wi, err := radio.NewWiFiInterferer(ch, cfg.WiFiDutyCycle, cfg.WiFiPower, cfg.SamplesPerChip*100)
		if err != nil {
			return nil, err
		}
		w.wifi = append(w.wifi, wi)
	}
	stickModel := chip.RZUSBStick()
	stick, err := stickModel.NewZigbeePHY(cfg.SamplesPerChip)
	if err != nil {
		return nil, err
	}
	stick.Obs = w.reg
	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		tx, err := model.NewWazaBeeTransmitter(cfg.SamplesPerChip)
		if err != nil {
			return nil, err
		}
		tx.Obs = w.reg
		rx, err := model.NewWazaBeeReceiver(cfg.SamplesPerChip)
		if err != nil {
			return nil, err
		}
		rx.Obs = w.reg
		rxs := rx.Stream()
		for _, side := range []experiment.Side{experiment.Transmission, experiment.Reception} {
			for _, channel := range ieee802154.Channels() {
				freq, err := ieee802154.ChannelFrequencyMHz(channel)
				if err != nil {
					return nil, err
				}
				c := &linkCell{side: side, freqMHz: freq, stick: stick,
					ppm: model.CrystalPPM + stickModel.CrystalPPM}
				if side == experiment.Transmission {
					c.bleTX = tx
					c.rxNF, c.rxRej = stickModel.NoiseFigureDB, stickModel.InterferenceRejectionDB
				} else {
					c.rxs = rxs
					c.rxNF, c.rxRej = model.NoiseFigureDB, model.InterferenceRejectionDB
				}
				w.cells = append(w.cells, c)
			}
		}
	}

	// Frames: XBee sensor readings padded to PSDU lengths from 14 to the
	// 127-byte maximum, interleaved across cells. The lengths are spread
	// evenly over that range and dealt out by the seed, so every seed
	// sends the same amount of air time and its latency percentiles do
	// not hinge on a lucky draw of lengths.
	rng := rand.New(rand.NewSource(seed))
	const hdr = 9 + 2 // MHR with short addresses and PAN compression, FCS
	total := framesPerCell * len(w.cells)
	lengths := make([]int, total)
	for i := range lengths {
		lengths[i] = 14 + (2*i+1)*(ieee802154.MaxPSDULength-14+1)/(2*total)
	}
	rng.Shuffle(total, func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	for i := 0; i < framesPerCell; i++ {
		for _, c := range w.cells {
			n := lengths[len(w.frames)]
			payload := zigbee.SensorPayload(uint16(rng.Intn(1 << 16)))
			for len(payload) < n-hdr {
				payload = append(payload, byte(rng.Intn(256)))
			}
			f := &linkFrame{cell: c, seed: rng.Int63()}
			f.want = *ieee802154.NewDataFrame(uint8(len(w.frames)), xbeePAN, xbeeCoord, xbeeSensor, payload, false)
			if f.psdu, err = f.want.Encode(); err != nil {
				return nil, err
			}
			if f.ppdu, err = ieee802154.NewPPDU(bytes.Clone(f.psdu)); err != nil {
				return nil, err
			}
			w.frames = append(w.frames, f)
		}
	}
	// Warm the buffer pools and lazy tables with one longest frame per
	// chip and side before anything is timed. The warm-up frames do not
	// depend on the seed, so neither does the set-up time.
	var o outcome
	tr := newTracer(false)
	for i := 0; i < 4; i++ {
		f := *w.frames[i*len(ieee802154.Channels())]
		f.want.Payload = make([]byte, ieee802154.MaxPSDULength-hdr)
		f.seed = int64(i)
		if f.psdu, err = f.want.Encode(); err != nil {
			return nil, err
		}
		if f.ppdu, err = ieee802154.NewPPDU(bytes.Clone(f.psdu)); err != nil {
			return nil, err
		}
		w.frame(&f, tr, &o)
	}
	if o.failed > 0 {
		return nil, fmt.Errorf("pivot-link warm-up: %s", o.failures[0])
	}
	return w, nil
}

// measure sends whole passes until d has elapsed. Throughput is the
// median over passes; every pass sends the same frames.
func (w *pivotLink) measure(d time.Duration, traced bool) *outcome {
	o := &outcome{tr: newTracer(traced)}
	valid := 0
	rc0 := readRuntime()
	before := w.reg.Snapshot()
	start := time.Now()
	for more := true; more; more = time.Since(start) < d {
		// A round is one frame of every cell; the host's speed is read
		// between rounds.
		var busy time.Duration
		for r := 0; r < len(w.frames); r += len(w.cells) {
			o.calibrate()
			win := startWindow()
			for _, f := range w.frames[r : r+len(w.cells)] {
				if w.frame(f, o.tr, o) {
					valid++
				}
			}
			busy += win.busy()
		}
		o.rates = append(o.rates, float64(len(w.frames))/busy.Seconds())
		o.endLatencyWindow()
	}
	o.wall = time.Since(start)
	o.success = ratio(float64(valid), float64(o.attempted))
	if o.success < minValidRate {
		o.fail("valid rate %.4f below %.2f", o.success, minValidRate)
	}
	if traced {
		w.layers(o, rc0, before)
	}
	return o
}

// frame round-trips one frame through its cell and reports whether the
// decoded PSDU equals the one sent.
func (w *pivotLink) frame(f *linkFrame, tr *tracer, o *outcome) bool {
	c := f.cell
	o.attempted++
	t0 := time.Now()

	var allocs uint64
	if c.side == experiment.Transmission {
		tr.begin("ble.modulate")
		if tr.on {
			allocs = allocCount()
		}
	} else {
		tr.begin("ieee802154.modulate")
	}
	sig, release, err := w.modulate(f)
	if tr.on && c.side == experiment.Transmission {
		o.txAllocs += allocCount() - allocs
	}
	tr.end()
	if err != nil {
		o.fail("modulate: %v", err)
		return false
	}

	tr.begin("radio.deliver")
	capture, err := w.deliver(f, sig)
	tr.end()
	release()
	if err != nil {
		o.fail("deliver: %v", err)
		return false
	}

	var dem *ieee802154.Demodulated
	if c.side == experiment.Transmission {
		tr.begin("ieee802154.demod")
		dem, _, err = c.stick.DemodulateStats(capture)
		tr.end()
	} else {
		tr.begin("core.rx_push")
		if tr.on {
			allocs = allocCount()
		}
		c.rxs.Push(capture)
		if tr.on {
			o.pushAllocs += allocCount() - allocs
			o.pushes++
		}
		tr.end()
		tr.begin("core.rx_flush")
		dem, _, err = c.rxs.Flush()
		tr.end()
		o.airUS += float64(len(capture)) / float64(w.cfg.SamplesPerChip*ieee802154.ChipRate) * 1e6
	}
	switch {
	case errors.Is(err, ieee802154.ErrNoSync):
		// Not received: a modelled radio loss, not a failure.
		o.latency = append(o.latency, float64(time.Since(t0).Nanoseconds())/1e3)
		return false
	case err != nil:
		o.fail("demodulate: %v", err)
		return false
	}

	tr.begin("ieee802154.parse")
	got, perr := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	tr.end()
	o.latency = append(o.latency, float64(time.Since(t0).Nanoseconds())/1e3)
	if !bytes.Equal(dem.PPDU.PSDU, f.psdu) {
		if bitstream.CheckFCS(dem.PPDU.PSDU) {
			o.fail("frame %d: FCS-valid PSDU differs from the PSDU sent", f.want.Seq)
		}
		return false // received with integrity corruption
	}
	if perr != nil {
		o.fail("frame %d: parse of the sent PSDU: %v", f.want.Seq, perr)
		return false
	}
	if !sameFrame(got, &f.want) {
		o.fail("frame %d: decoded fields differ from the frame sent", f.want.Seq)
		return false
	}
	return true
}

// modulate produces the transmitter's waveform; release returns any
// pooled buffer.
func (w *pivotLink) modulate(f *linkFrame) (sig []complex128, release func(), err error) {
	if f.cell.side == experiment.Transmission {
		return f.cell.bleTX.ModulatePooled(f.ppdu)
	}
	sig, err = f.cell.stick.Modulate(f.ppdu)
	return sig, func() {}, err
}

// deliver runs the frame over a fresh medium seeded from the frame
// alone, with Table III's link: the CFO draw first, then the lab SNR
// minus the receiver's noise figure, and WiFi on channels 6 and 11.
func (w *pivotLink) deliver(f *linkFrame, sig []complex128) ([]complex128, error) {
	c := f.cell
	sps := w.cfg.SamplesPerChip
	m, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, f.seed)
	if err != nil {
		return nil, err
	}
	m.Obs = w.reg
	for _, wi := range w.wifi {
		m.AddWiFi(wi)
	}
	cfo := (m.Rand().Float64()*2 - 1) * c.ppm * c.freqMHz
	return m.Deliver(sig, c.freqMHz, c.freqMHz, radio.Link{
		SNRdB:                   w.cfg.SNRdB - c.rxNF,
		CFOHz:                   cfo,
		LeadSamples:             40 * sps,
		LagSamples:              20 * sps,
		InterferenceRejectionDB: c.rxRej,
	})
}

// sameFrame compares the fields the XBee frame was built from.
func sameFrame(got, want *ieee802154.MACFrame) bool {
	return got.Type == want.Type && got.Seq == want.Seq &&
		got.DestPAN == want.DestPAN && got.DestAddr == want.DestAddr &&
		got.SrcAddr == want.SrcAddr && bytes.Equal(got.Payload, want.Payload)
}

// layers fills the per-layer rows of a traced pivot-link phase.
func (w *pivotLink) layers(o *outcome, rc0 runtimeCounters, before []obs.SeriesSnapshot) {
	tr := o.tr
	after := w.reg.Snapshot()
	txFrames, rxFrames := tr.count("ble.modulate"), tr.count("core.rx_flush")
	o.layer("ble.modulate_us", perUS(tr.self("ble.modulate"), txFrames))
	o.layer("ble.modulate_allocs", ratio(float64(o.txAllocs), float64(txFrames)))
	o.layer("ieee802154.modulate_us", perUS(tr.self("ieee802154.modulate"), tr.count("ieee802154.modulate")))
	o.layer("ieee802154.demod_us", perUS(tr.self("ieee802154.demod"), tr.count("ieee802154.demod")))
	o.layer("ieee802154.parse_us", perUS(tr.self("ieee802154.parse"), tr.count("ieee802154.parse")))
	o.layer("radio.deliver_us", perUS(tr.self("radio.deliver"), tr.count("radio.deliver")))
	rxLayers(o, rxFrames, before, after)
	o.runtimeLayers(rc0)
}

// rxLayers fills the streaming receiver's rows from the spans around
// Push and Flush and from the receiver's own stage histograms, all per
// frame (one Flush concludes one frame attempt).
func rxLayers(o *outcome, frames int, before, after []obs.SeriesSnapshot) {
	tr := o.tr
	o.layer("core.rx_push_us", perUS(tr.self("core.rx_push"), frames))
	o.layer("core.rx_push_us_per_air_ms", ratio(float64(tr.self("core.rx_push").Nanoseconds())/1e3, o.airUS/1e3))
	o.layer("core.rx_correlate_us", ratio(1e6*histSum(after, before, obs.StageSecondsMetric, "stage", "aa-correlate"), float64(frames)))
	o.layer("core.rx_despread_us", ratio(1e6*histSum(after, before, obs.StageSecondsMetric, "stage", "despread"), float64(frames)))
	o.layer("core.rx_flush_us", perUS(tr.self("core.rx_flush"), frames))
	o.layer("core.rx_push_allocs", ratio(float64(o.pushAllocs), float64(o.pushes)))
	o.layer("core.rx_sync_fail_ratio", ratio(counterDelta(after, before, "wazabee_sync_failures_total", "decoder", "wazabee"), float64(frames)))
	o.layer("core.rx_gate_drop_ratio", ratio(counterDelta(after, before, "wazabee_quality_gate_drops_total", "decoder", "wazabee"), float64(frames)))
}
