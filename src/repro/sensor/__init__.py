"""The Tunable Dual-Polarity time-to-digital converter (TDC) sensor.

Implements the measurement pipeline of Section 4 of the paper, end to
end and discretely:

* a programmable phase ``theta`` between the launch and capture clocks
  (:mod:`repro.sensor.clocking`);
* a transition generator that sends rising and falling edges through the
  route under test (:mod:`repro.sensor.transition`);
* a 64-element carry-chain delay line with per-bin mismatch
  (:mod:`repro.sensor.carry_chain`);
* capture registers with boundary metastability
  (:mod:`repro.sensor.capture`);
* Binary-Hamming-distance post-processing and the 2.8 ps/bit conversion
  (:mod:`repro.sensor.postprocess`);
* the theta_init calibration search (:mod:`repro.sensor.calibration`);
* lab vs. cloud noise environments (:mod:`repro.sensor.noise`);
* the prior-work ring-oscillator sensor baseline, which cloud DRC
  rejects (:mod:`repro.sensor.ro`).
"""

from repro.sensor.calibration import find_theta_init
from repro.sensor.carry_chain import CarryChain
from repro.sensor.clocking import PhaseGenerator
from repro.sensor.noise import NoiseModel, LAB_NOISE, CLOUD_NOISE
from repro.sensor.postprocess import (
    binary_hamming_distance,
    trace_mean_distance,
)
from repro.sensor.tdc import Measurement, TunableDualPolarityTdc
from repro.sensor.trace import Trace, Polarity
from repro.sensor.ro import RingOscillatorSensor, build_ro_netlist

__all__ = [
    "CLOUD_NOISE",
    "CarryChain",
    "LAB_NOISE",
    "Measurement",
    "NoiseModel",
    "PhaseGenerator",
    "Polarity",
    "RingOscillatorSensor",
    "Trace",
    "TunableDualPolarityTdc",
    "binary_hamming_distance",
    "build_ro_netlist",
    "find_theta_init",
    "trace_mean_distance",
]
