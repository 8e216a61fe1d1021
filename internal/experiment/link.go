package experiment

import (
	"context"
	"errors"
	"fmt"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	oblink "wazabee/internal/obs/link"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// ModemPair is the IQ modem pair of the WazaBee link for one side: the
// legitimate RZUSBStick O-QPSK radio at one end and the diverted BLE
// chip's WazaBee primitive at the other. Table III, the PER sweep and the
// calibration fit behind the cheaper fidelity tiers (internal/calib) all
// measure the link through it.
type ModemPair struct {
	// Modulate turns a PPDU into the transmitter's baseband waveform.
	Modulate func(*ieee802154.PPDU) (dsp.IQ, error)
	// Demodulate recovers a frame from a capture along with the
	// receiver's per-frame link diagnostics, which are never nil.
	Demodulate func(dsp.IQ) (*ieee802154.Demodulated, *oblink.Stats, error)
}

// NewModemPair builds the modem pair of one side at the given
// oversampling factor, with every component reporting into reg. It fails
// for an invalid side and for a chip that cannot run the side's
// primitive.
func NewModemPair(model chip.Model, side Side, samplesPerChip int, reg *obs.Registry) (ModemPair, error) {
	stick, err := chip.RZUSBStick().NewZigbeePHY(samplesPerChip)
	if err != nil {
		return ModemPair{}, err
	}
	stick.Obs = reg
	switch side {
	case Reception:
		rx, err := model.NewWazaBeeReceiver(samplesPerChip)
		if err != nil {
			return ModemPair{}, err
		}
		rx.Obs = reg
		return ModemPair{Modulate: stick.Modulate, Demodulate: rx.ReceiveStats}, nil
	case Transmission:
		tx, err := model.NewWazaBeeTransmitter(samplesPerChip)
		if err != nil {
			return ModemPair{}, err
		}
		tx.Obs = reg
		return ModemPair{Modulate: tx.Modulate, Demodulate: stick.DemodulateStats}, nil
	default:
		return ModemPair{}, fmt.Errorf("experiment: invalid side %d", int(side))
	}
}

// Table3PSDU encodes frame i of the paper's Table III traffic: a sensor
// data frame with sequence number i whose reading is a counter
// incremented with each frame, so frame i carries counter i.
func Table3PSDU(i int) ([]byte, error) {
	frame := ieee802154.NewDataFrame(uint8(i), zigbee.DefaultPAN, zigbee.DefaultCoordinator,
		zigbee.DefaultSensor, zigbee.SensorPayload(uint16(i)), false)
	return frame.Encode()
}

// study is one measurement over the link — Table III or the PER sweep:
// its runner spec prefix, its class counter family and the link
// conditions all its points share.
type study struct {
	// name prefixes the runner spec name ("<name>/<chip>/<side>").
	name string
	// keyPrefix prefixes a point's label to form its runner point key,
	// which seeds the point's trials.
	keyPrefix string
	// metric is the class counter family; label is the counter label
	// that names a point.
	metric, label string
	// wifi adds the WiFi networks on channels 6 and 11 when
	// Config.WiFi is set, with the receiver's interference rejection
	// applied against them.
	wifi bool
	// cfo draws a carrier offset within the pair's crystal budget for
	// each frame.
	cfo bool
	// leadChips and lagChips pad the frame with that much silence.
	leadChips, lagChips int
}

var (
	// table3Study is the paper's lab link: WiFi networks, crystal
	// offsets and a 40/20-chip capture window.
	table3Study = study{name: "table3", keyPrefix: "ch", metric: FramesMetric, label: "channel",
		wifi: true, cfo: true, leadChips: 40, lagChips: 20}
	// sweepStudy is a clean link for pure sensitivity: no WiFi, no CFO
	// and a 30/15-chip capture window.
	sweepStudy = study{name: "persweep", keyPrefix: "snr", metric: SweepMetric, label: "snr_db",
		leadChips: 30, lagChips: 15}
)

// linkPoint is one operating point of a study. Its label is the value of
// the study's counter label and, after the study's key prefix, its
// runner point key.
type linkPoint struct {
	label   string
	channel int
	// snrDB is the link budget before the receiver's noise figure is
	// subtracted.
	snrDB float64
}

// linkClasses is the outcome class set of a link trial.
var linkClasses = []string{"valid", "corrupted", "not_received"}

// runLink measures a study's points for one chip model and side on the
// sharded Monte-Carlo runner: cfg.FramesPerChannel frames per point on a
// bounded worker pool, every frame's randomness derived from
// (cfg.Seed, point key, frame), so the tallies are reproducible
// regardless of parallelism, scheduling and point order. It returns one
// result per point, in point order. All telemetry of the run — the class
// counters and everything the pipeline underneath reports — lands in a
// run-local registry that merges into cfg.Obs once the run is complete.
func runLink(ctx context.Context, cfg Config, st study, model chip.Model, side Side, points []linkPoint) ([]runner.PointResult, error) {
	if cfg.FramesPerChannel < 1 {
		return nil, fmt.Errorf("experiment: frames per point %d < 1", cfg.FramesPerChannel)
	}
	reg := obs.NewRegistry()
	// Build one pair up front so a bad chip/side combination surfaces as
	// one error, not one per frame.
	if _, err := NewModemPair(model, side, cfg.SamplesPerChip, reg); err != nil {
		return nil, err
	}

	rpoints := make([]runner.Point, len(points))
	byKey := make(map[string]linkPoint, len(points))
	for i, p := range points {
		key := st.keyPrefix + p.label
		rpoints[i] = runner.Point{Key: key, Trials: cfg.FramesPerChannel}
		byKey[key] = p
	}
	spec := runner.Spec{
		Name:       st.name + "/" + model.Name + "/" + side.String(),
		Seed:       cfg.Seed,
		Points:     rpoints,
		Workers:    cfg.Workers,
		Classes:    linkClasses,
		Checkpoint: cfg.Checkpoint,
		Obs:        reg,
	}
	if cfg.CIHalfWidth > 0 {
		// Wilson intervals of p and 1-p mirror each other with equal
		// width, so stopping on the valid rate's half-width is exactly
		// stopping on the error rate's.
		spec.Stop = &runner.Stop{Class: "valid", HalfWidth: cfg.CIHalfWidth}
	}
	res, err := runner.Run(ctx, spec, func(_ context.Context, seed int64, point runner.Point, frame int) (runner.Outcome, error) {
		class, err := linkTrial(cfg, st, reg, model, side, byKey[point.Key], seed, frame)
		if err != nil {
			return runner.Outcome{}, err
		}
		return runner.Outcome{Class: class}, nil
	})
	if err != nil {
		return nil, err
	}
	// The class counters mirror the runner tallies, keeping the registry
	// the queryable record of the run.
	for i, pr := range res.Points {
		for _, class := range linkClasses {
			reg.Counter(st.metric,
				"chip", model.Name,
				"side", side.String(),
				st.label, points[i].label,
				"class", class).Add(uint64(pr.Counts[class]))
		}
	}
	if err := obs.Or(cfg.Obs).Merge(reg); err != nil {
		return nil, err
	}
	return res.Points, nil
}

// linkTrial measures one frame at one operating point and classifies it
// as valid, corrupted or not_received. The frame crosses a fresh medium
// whose every random draw — noise, burst timing, CFO, interference
// gating — flows from the trial's derived seed and nothing else. That
// isolation is what makes the point independent of which worker, and in
// which order, ran it.
//
// Delivery routes through radio.Channel at the configured fidelity tier.
// The operating point (medium, WiFi environment, CFO draw) is built
// identically for every tier, so the symbol and frame tiers measure the
// same grid the IQ tier does, through the calibrated tables instead of
// the DSP chain.
func linkTrial(cfg Config, st study, reg *obs.Registry, model chip.Model, side Side, p linkPoint, seed int64, frame int) (string, error) {
	medium, err := radio.NewMedium(float64(cfg.SamplesPerChip)*ieee802154.ChipRate, seed)
	if err != nil {
		return "", err
	}
	medium.Obs = reg

	tx, rx := chip.RZUSBStick(), model
	if side == Transmission {
		tx, rx = rx, tx
	}
	link := radio.Link{
		SNRdB:       p.snrDB - rx.NoiseFigureDB,
		LeadSamples: st.leadChips * cfg.SamplesPerChip,
		LagSamples:  st.lagChips * cfg.SamplesPerChip,
	}
	if st.wifi && cfg.WiFi {
		burst := cfg.SamplesPerChip * 100 // ≈ a short WiFi frame
		for _, wifiChannel := range []int{6, 11} {
			w, err := radio.NewWiFiInterferer(wifiChannel, cfg.WiFiDutyCycle, cfg.WiFiPower, burst)
			if err != nil {
				return "", err
			}
			medium.AddWiFi(w)
		}
		link.InterferenceRejectionDB = rx.InterferenceRejectionDB
	}
	freq, err := ieee802154.ChannelFrequencyMHz(p.channel)
	if err != nil {
		return "", err
	}
	if st.cfo {
		// The CFO draw is the first consumption of the medium's seeded
		// stream on every tier, so the calibrated tiers see the IQ
		// tier's per-trial operating point.
		link.CFOHz = (medium.Rand().Float64()*2 - 1) * (tx.CrystalPPM + rx.CrystalPPM) * freq // 1 ppm at f MHz = f Hz
	}
	psdu, err := Table3PSDU(frame)
	if err != nil {
		return "", err
	}

	fid := cfg.Fidelity
	if fid == 0 {
		fid = radio.FidelityIQ
	}
	var ch radio.Channel
	var stats *oblink.Stats
	if fid == radio.FidelityIQ {
		pair, perr := NewModemPair(model, side, cfg.SamplesPerChip, reg)
		if perr != nil {
			return "", perr
		}
		ch, err = medium.Channel(fid, radio.ChannelOptions{Endpoints: &radio.IQEndpoints{
			Modulate: func(psdu []byte) (dsp.IQ, error) {
				ppdu, err := ieee802154.NewPPDU(psdu)
				if err != nil {
					return nil, err
				}
				return pair.Modulate(ppdu)
			},
			Demodulate: func(capture dsp.IQ) ([]byte, error) {
				dem, frameStats, err := pair.Demodulate(capture)
				stats = frameStats
				if err != nil {
					return nil, err
				}
				return dem.PPDU.PSDU, nil
			},
		}})
	} else {
		ch, err = medium.Channel(fid, radio.ChannelOptions{
			Profile: radio.CalProfileName(model.Name, side.String()),
		})
	}
	if err != nil {
		return "", err
	}

	out, err := ch.Deliver(radio.FrameSpec{
		PSDU:      psdu,
		TxFreqMHz: freq,
		RxFreqMHz: freq,
		Link:      link,
		Seed:      uint64(seed),
	})
	if err != nil {
		return "", err
	}
	if cfg.Link != nil && stats != nil {
		cfg.Link.Observe(p.channel, stats)
	}
	switch {
	case errors.Is(out.DecodeErr, ieee802154.ErrNoSync):
		return "not_received", nil
	case out.DecodeErr != nil:
		return "", out.DecodeErr
	case out.Valid:
		return "valid", nil
	default:
		return "corrupted", nil
	}
}
