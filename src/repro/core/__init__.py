"""``repro.core`` — geometry kernel: points, predicates, boxes, distances."""

from .bbox import BBox, bbox_of
from .distance import (
    box_dist_sq,
    cross_dists_sq,
    dist,
    dist_sq,
    far_dist_sq,
    pairwise_dists_sq,
    sq_norm,
)
from .points import PointSet, as_array, as_points
from .predicates import (
    incircle,
    incircle_batch,
    orient2d,
    orient2d_batch,
    orient3d,
    orient3d_batch,
)

__all__ = [
    "BBox",
    "PointSet",
    "as_array",
    "as_points",
    "bbox_of",
    "box_dist_sq",
    "cross_dists_sq",
    "dist",
    "dist_sq",
    "far_dist_sq",
    "incircle",
    "incircle_batch",
    "orient2d",
    "orient2d_batch",
    "orient3d",
    "orient3d_batch",
    "pairwise_dists_sq",
    "sq_norm",
]
