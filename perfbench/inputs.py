"""Seeded input generators for the benchmark.

Everything is built from the workload seed; nothing is downloaded and the
package under test only ever sees the generated arrays (or, for the pipeline,
a generated config file).
"""

from __future__ import annotations

import numpy as np

SIDE = 28
NUM_CLASSES = 10
STROKE_WIDTH = 0.09  # Gaussian stroke profile, in template units (about 1 px)
PIXEL_NOISE = 0.08  # standard deviation of the additive pixel noise

# One polyline stroke template per class, in a [-1, 1]^2 frame with y up.
# Each template is a list of polylines; each polyline is a list of points.
_TEMPLATES = [
    [[(-0.45, 0.0), (-0.3, 0.6), (0.3, 0.6), (0.45, 0.0), (0.3, -0.6), (-0.3, -0.6), (-0.45, 0.0)]],
    [[(0.0, 0.7), (0.0, -0.7)], [(-0.25, 0.45), (0.0, 0.7)]],
    [[(-0.5, 0.6), (0.5, 0.6), (0.5, 0.05), (-0.5, -0.6), (0.5, -0.6)]],
    [[(-0.5, 0.6), (0.5, 0.6), (0.0, 0.0), (0.5, -0.6), (-0.5, -0.6)]],
    [[(-0.35, 0.7), (-0.5, 0.0), (0.5, 0.0)], [(0.25, 0.7), (0.25, -0.7)]],
    [[(0.5, 0.6), (-0.5, 0.6), (-0.5, 0.0), (0.5, 0.0), (0.5, -0.6), (-0.5, -0.6)]],
    [[(0.4, 0.7), (-0.4, 0.0), (-0.4, -0.6), (0.4, -0.6), (0.4, 0.0), (-0.4, 0.0)]],
    [[(-0.5, 0.6), (0.5, 0.6), (-0.1, -0.7)]],
    [[(-0.4, 0.0), (-0.4, 0.65), (0.4, 0.65), (0.4, -0.65), (-0.4, -0.65), (-0.4, 0.0), (0.4, 0.0)]],
    [[(0.4, 0.0), (-0.4, 0.0), (-0.4, 0.6), (0.4, 0.6), (0.4, -0.7)]],
]


def _segments(template) -> np.ndarray:
    """(S, 2, 2) array of stroke segments [start, end] x [x, y]."""
    segs = []
    for line in template:
        pts = np.asarray(line, dtype=np.float64)
        segs.extend(np.stack([pts[:-1], pts[1:]], axis=1))
    return np.asarray(segs)


_SEGMENTS = [_segments(t) for t in _TEMPLATES]


def glyphs(n: int, seed):
    """``n`` 28x28 glyph images in [0, 1] and their class labels.

    Each image draws its class's stroke template through a random affine map
    (rotation, anisotropic scale, shear, shift), renders strokes with a Gaussian
    profile of about 1 px, and adds Gaussian pixel noise.  ``seed`` may be an
    int or a tuple of ints (a seed plus a stream index).  Returns (images (n, 28, 28) float64,
    labels (n,) int64).
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, NUM_CLASSES, size=n)
    theta = rng.uniform(-0.25, 0.25, n)
    scale = 1.0 + rng.uniform(-0.15, 0.15, (n, 2))
    shear = rng.uniform(-0.2, 0.2, n)
    shift = rng.uniform(-0.12, 0.12, (n, 2))
    cos, sin = np.cos(theta), np.sin(theta)
    # A = R(theta) @ [[sx, shear], [0, sy]]
    amat = np.empty((n, 2, 2))
    amat[:, 0, 0] = cos * scale[:, 0]
    amat[:, 0, 1] = cos * shear - sin * scale[:, 1]
    amat[:, 1, 0] = sin * scale[:, 0]
    amat[:, 1, 1] = sin * shear + cos * scale[:, 1]

    # pixel centres in the template frame (y up)
    coords = (np.arange(SIDE) - (SIDE - 1) / 2.0) / 10.0
    px, py = np.meshgrid(coords, -coords)
    pix = np.stack([px.ravel(), py.ravel()], axis=1)  # (784, 2)

    images = np.empty((n, SIDE * SIDE))
    for cls in range(NUM_CLASSES):
        rows = np.flatnonzero(labels == cls)
        if rows.size == 0:
            continue
        segs = _SEGMENTS[cls]
        # transformed endpoints: (m, S, 2)
        a = np.einsum("mij,sj->msi", amat[rows], segs[:, 0]) + shift[rows, None, :]
        b = np.einsum("mij,sj->msi", amat[rows], segs[:, 1]) + shift[rows, None, :]
        ab = b - a
        denom = np.maximum((ab * ab).sum(-1), 1e-12)  # (m, S)
        # projection of every pixel onto every segment: (m, S, 784)
        ap_x = pix[None, None, :, 0] - a[..., 0, None]
        ap_y = pix[None, None, :, 1] - a[..., 1, None]
        t = np.clip((ap_x * ab[..., 0, None] + ap_y * ab[..., 1, None]) / denom[..., None], 0.0, 1.0)
        dx = ap_x - t * ab[..., 0, None]
        dy = ap_y - t * ab[..., 1, None]
        dist2 = (dx * dx + dy * dy).min(axis=1)  # (m, 784)
        images[rows] = np.exp(-dist2 / (2.0 * STROKE_WIDTH * STROKE_WIDTH))
    images += rng.normal(0.0, PIXEL_NOISE, images.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return images.reshape(n, SIDE, SIDE), labels.astype(np.int64)


def keep_sets(widths, fraction: float, seed: int) -> list[np.ndarray]:
    """One sorted, seeded random keep set per gate, about ``fraction`` of each width."""
    rng = np.random.default_rng(seed)
    return [
        np.sort(rng.choice(k, size=max(1, int(round(fraction * k))), replace=False))
        for k in widths
    ]


# Stage lengths of the pipeline workload; a pass runs them back to back.
# Short stages keep a pass near one second, so a run holds enough passes for a
# steady median; at this rate stage 1 still prunes some units in 10 epochs.
PIPELINE_EPOCHS = (2, 10)


def pipeline_config(seed: int, output_dir: str, epochs=PIPELINE_EPOCHS) -> dict:
    """The ``two_cluster`` MLP 20-16-2 run config for the staged CLI.

    ``epochs`` is (pretrain epochs, epochs of each fine-tune stage).
    """
    return {
        "model": {"arch": "mlp", "dims": [20, 16, 2], "seed": seed},
        "data": {"kind": "two_cluster", "n": 2000, "d": 20, "noise": 0.3,
                 "val_fraction": 0.15, "seed": seed},
        "train": {"batch_size": 100, "lr_variational": 0.05, "seed": seed,
                  "pretrain_epochs": epochs[0], "finetune_epochs": epochs[1]},
        "output_dir": output_dir,
    }
