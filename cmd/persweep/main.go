// Command persweep extends the paper's evaluation with packet error
// rate versus SNR waterfalls for both primitives: where Table III
// samples one operating point per channel, this sweep locates the
// sensitivity knee and quantifies the Gaussian-approximation penalty of
// transmitting through a BLE modulator. It measures the same modem pair
// and per-frame trial as Table III, over a clean channel (no WiFi, no
// CFO) at each SNR in turn. Output is CSV; every PER comes with its 95%
// Wilson interval, and the lost column is the not_received class of
// wazabee_sweep_frames_total.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"wazabee/internal/chip"
	"wazabee/internal/experiment"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

func main() {
	obs.RegisterBuildInfo(nil)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "persweep:", err)
		os.Exit(1)
	}
}

func run() error {
	frames := flag.Int("frames", 50, "frames per SNR point")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "Monte-Carlo worker pool size; 0 = GOMAXPROCS (results are identical at any value)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file prefix; each chip/side sweep persists completed shards to <prefix>.<chip>.<side>.json and resumes from it (Ctrl-C is a clean interruption)")
	ciHalf := flag.Float64("ci", 0, "adaptive stop: end each SNR point once the 95% CI half-width of its PER reaches this target; 0 = fixed frame count")
	fidelity := flag.String("fidelity", "iq", "frame-delivery tier: iq (full DSP ground truth), symbol (calibrated per-symbol draws) or frame (closed-form erasures)")
	flag.Parse()

	fid, err := radio.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}

	cfg := experiment.DefaultConfig()
	cfg.FramesPerChannel = *frames
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.CIHalfWidth = *ciHalf
	cfg.Fidelity = fid
	sweep := experiment.DefaultSweepConfig()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Println("chip,side,snr_db,frames,per,per_lo,per_hi,corrupted,lost")
	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		for _, side := range []experiment.Side{experiment.Reception, experiment.Transmission} {
			if *checkpoint != "" {
				cfg.Checkpoint = fmt.Sprintf("%s.%s.%s.json", *checkpoint, model.Name, side)
			}
			points, err := experiment.RunSweepContext(ctx, cfg, sweep, model, side)
			if err != nil {
				return err
			}
			for _, p := range points {
				fmt.Printf("%s,%v,%.1f,%d,%.4f,%.4f,%.4f,%.4f,%.4f\n",
					model.Name, side, p.SNRdB, p.Frames, p.PER, p.PERLo, p.PERHi, p.CorruptedRate, p.LossRate)
			}
		}
	}
	return nil
}
