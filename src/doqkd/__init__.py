"""Entanglement-based dispersive-optics QKD: simulation and key extraction.

The package covers the full desk-scale pipeline: stochastic generation of
time-tagged detection streams, coincidence analytics, three-level bin
sifting, covariance-matrix security analysis, LDPC syndrome reconciliation,
and Toeplitz-hash privacy amplification.
"""

from .errors import (ConfigError, DoqkdError, EstimationError, NoPeakError,
                     ProtocolAbort, ReconciliationError, StageError)
from .io import read_ttag, write_ttag
from .ldpc import LdpcCode, SUPPORTED_RATES, decode_syndrome, make_code, syndrome
from .postproc import (ReconciliationOutcome, efficiency, gray_encode_symbols,
                       privacy_amplify, reconcile, reconcile_key, secret_length,
                       select_rate, verification_hash)
from .security import (Baseline, FourBasisHistograms, SecurityReport, Tfcm,
                       estimate_tfcm, excess_noise, gaussian_entropy_g,
                       holevo_bound, mutual_information, secret_fraction,
                       shannon_info)
from .session import (OptimizeEntry, SessionReport, SweepRow, SweepTable,
                      compute_baseline, optimize, run_experiment, sweep)
from .sifting import FrameFormat, SiftResult, pack_symbols, qber, run_sifting
from .simulate import (ChannelModel, DetectorModel, DispersiveBasis, SessionTags,
                       SimConfig, SourceModel, dispersive_shift,
                       paper_default_config, simulate_session)
from .timetags import (Basis, Channel, CoincidenceHistogram, EffectiveRates,
                       Party, TagStream, coincidence_histogram, effective_rates,
                       fwhm)

__version__ = "0.1.0"
