"""The package's public names, pinned: a name that joins or leaves
`taskswitch.__all__` (say, a test-only helper moved back in) shows up here,
and so does a tuning argument that comes back to the training recipe."""

import dataclasses
import inspect

import taskswitch

PUBLIC = """
CANDIDATE_WIDTHS CapacityError CodecError CompressedModule CompressedTaskVector
CorruptStreamError DEFAULT_LAMBDA EncodedModule Format LAMBDA_PRESETS MlpSpec
ParamSet QuantSpec ReferenceIndex SignedBounds StructureError SyntheticTaskSpec
TaskData TaskVector TrainConfig TrainResult TrainingDivergedError accuracy add
autodiff base_dataset baseline_merge bitwidth build_index build_switch
choose_format cka_loss codec container decode diff encode encode_dense
encode_indep expected_bits features fine_tune forward gen_tasks
harness init_params kl_loss kmeans knn_weights load_bundle load_container
load_index load_params losses materialize merged_forward merging model mse_loss
optim optimal_group predict preservation_loss probe_precision probe_scale
probe_sparsity pulse_mask quantize quantize_indices read_dataset save_bundle
save_index save_params seeding sign_quantile signed_bounds sparse_from_decoded
switch switch_scale temperature_schedule train train_metric training vectors
write_dataset
""".split()


def test_public_names_are_pinned():
    assert sorted(taskswitch.__all__) == sorted(PUBLIC)


def test_train_config_fields_are_the_ones_compress_sets():
    assert [f.name for f in dataclasses.fields(taskswitch.TrainConfig)] == [
        "loss_kind", "preserve_weight", "softmax_temp", "steps", "batch_size",
        "exemplar_count", "seed"]


def test_training_recipe_takes_no_tuning_arguments():
    # Adam's moments, the k-means sweep limit and the temperature schedule
    # are fixed module constants, not per-call knobs
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(taskswitch.optim.Adam) == []
    assert params(taskswitch.kmeans) == ["points", "k", "seed"]
    assert params(taskswitch.temperature_schedule) == ["step"]
