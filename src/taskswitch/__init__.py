"""Compressed task vectors: learnable sparsification, adaptive bit-widths,
a grouped sparse bitstream, and per-input dynamic merging."""

from .bitwidth import CANDIDATE_WIDTHS, QuantSpec, quantize, quantize_indices
from .codec import (CapacityError, CodecError, CompressedModule,
                    CorruptStreamError, EncodedModule, Format, choose_format,
                    decode, encode, encode_dense, encode_indep, expected_bits,
                    optimal_group)
from .container import (load_bundle, load_container, load_params, save_bundle,
                        save_params, sparse_from_decoded)
from .harness import (SyntheticTaskSpec, TaskData, base_dataset,
                      baseline_merge, evaluate_tasks, fine_tune, gen_tasks,
                      probe_precision, probe_scale, probe_sparsity,
                      read_dataset, write_dataset)
from .losses import (DEFAULT_LAMBDA, LAMBDA_PRESETS, cka_loss, kl_loss,
                     mse_loss, preservation_loss)
from .merging import (ReferenceIndex, build_index, kmeans, knn_weights,
                      load_index, materialize, merged_forward, save_index,
                      train_metric)
from .model import MlpSpec, accuracy, features, forward, init_params, predict
from .switch import build_switch, pulse_mask, switch_scale
from .training import (CompressedTaskVector, TrainConfig, TrainResult,
                       TrainingDivergedError, temperature_schedule, train)
from .vectors import (ParamSet, SignedBounds, StructureError, TaskVector, add,
                      diff, sign_quantile, signed_bounds)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
