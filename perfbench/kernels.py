"""Operation and byte counts of the reference network, computed from the
layer table of `nn.reference_architecture()` rather than measured.

FLOPs count the multiply-adds of the convolutions and the dense layer as
two operations each; elementwise layers (batch norm, ReLU, pooling,
softmax) are not counted. A convolution's backward pass computes both the
weight and the input gradient, each as costly as its forward pass.
"""

from __future__ import annotations

FLOAT32_BYTES = 4
TRAIN_BATCH = 64
INFER_BATCH = 256


def layer_table(specs, input_len: int, in_channels: int = 1) -> list[dict]:
    """Per layer: output elements, im2col elements and forward FLOPs, all
    per sample."""
    channels, length = in_channels, input_len
    rows = []
    for index, spec in enumerate(specs):
        flops = cols = 0
        if spec.kind == "conv1d":
            cols = channels * spec.kernel * length
            flops = 2 * spec.out_channels * cols
            channels = spec.out_channels
        elif spec.kind == "maxpool":
            length //= spec.pool
        elif spec.kind == "global_avg_pool":
            length = 1
        elif spec.kind == "dense":
            flops = 2 * spec.units * channels
            channels = spec.units
        rows.append({"layer": index, "kind": spec.kind,
                     "out_elements": channels * length,
                     "im2col_elements": cols, "fwd_flops": flops})
    return rows


def kernel_counts(specs, input_len: int) -> dict:
    """The computed counts printed with every traced result."""
    rows = layer_table(specs, input_len)
    conv = [r for r in rows if r["kind"] == "conv1d"]
    fwd = sum(r["fwd_flops"] for r in rows)
    conv_fwd = sum(r["fwd_flops"] for r in conv)
    # backward: dense and conv each cost two forward passes
    step = fwd + 2 * fwd
    act = sum(r["out_elements"] for r in rows) * FLOAT32_BYTES
    cols = sum(r["im2col_elements"] for r in rows) * FLOAT32_BYTES
    return {
        "label": "computed from nn.reference_architecture()",
        "conv_fwd_mflop_per_sample": {
            str(r["layer"]): r["fwd_flops"] / 1e6 for r in conv},
        "conv_fwd_mflop_per_sample_total": conv_fwd / 1e6,
        "fwd_flops_per_sample": fwd,
        "train_step_flops_per_sample": step,
        "train_step_mflop_batch64": step * TRAIN_BATCH / 1e6,
        "infer_mflop_batch256": fwd * INFER_BATCH / 1e6,
        "activation_bytes_train_step_batch64": act * TRAIN_BATCH,
        "im2col_bytes_train_step_batch64": cols * TRAIN_BATCH,
        "activation_bytes_infer_batch256": act * INFER_BATCH,
        "im2col_bytes_infer_batch256": cols * INFER_BATCH,
    }
