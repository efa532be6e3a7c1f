"""Flat, picklable snapshots of kd-tree query state (``FlatTree``).

A built :class:`~repro.kdtree.tree.KDTree` already keeps its nodes in
flat vEB-order arrays; the only non-flat parts are the Python object
itself and its handful of scalars.  A **FlatTree** is the tree reduced
to exactly that: a byte-layout table (name, dtype, shape, offset) over
one contiguous buffer holding every query-relevant array — points,
gids, the vEB node arrays, the permutation and the alive mask — plus a
scalar spec.

This is the shape that real (process) parallelism rewards: the parent
packs a tree into a :class:`multiprocessing.shared_memory.SharedMemory`
block once per tree version, and workers *attach* — reconstructing a
fully functional ``KDTree`` whose arrays are zero-copy views into the
shared block — instead of unpickling Python node objects.  Queries on
an attached tree run the identical engine code on identical bytes, so
results are bitwise-equal and work/depth charges unchanged.

Attached arrays are marked read-only: queries never write tree state,
and a worker scribbling on a shared segment would corrupt every other
attacher.
"""

from __future__ import annotations

import numpy as np

from .tree import KDTree

__all__ = [
    "attach_tree",
    "pack_tree",
    "tree_nbytes",
    "tree_spec_arrays",
]

#: Query-relevant array attributes of a built KDTree.  ``points`` and
#: ``box_lo``/``box_hi`` are (n, d)-shaped; the rest are 1-D.
_ARRAY_FIELDS = (
    "points",
    "gids",
    "split_dim",
    "split_val",
    "left",
    "right",
    "is_leaf",
    "used",
    "start",
    "end",
    "box_lo",
    "box_hi",
    "live",
    "perm",
    "alive",
)

#: Scalars needed to reconstruct the object around the arrays.
_SCALAR_FIELDS = (
    "split",
    "leaf_size",
    "n_points",
    "dim",
    "levels",
    "n_alive",
    "root",
    "version",
)

_ALIGN = 64  # cache-line alignment for every packed array


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def tree_spec_arrays(tree: KDTree, offset: int = 0) -> tuple[list, int]:
    """Layout table for ``tree``'s arrays starting at ``offset``.

    Returns ``(table, end_offset)`` where each table row is
    ``(name, dtype_str, shape, offset)``.
    """
    table = []
    for name in _ARRAY_FIELDS:
        arr = getattr(tree, name)
        offset = _aligned(offset)
        table.append((name, arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    return table, offset


def tree_nbytes(tree: KDTree, offset: int = 0) -> int:
    """Bytes needed to pack ``tree`` at ``offset`` (with alignment)."""
    return tree_spec_arrays(tree, offset)[1]


def pack_tree(tree: KDTree, buf, offset: int = 0) -> tuple[dict, int]:
    """Copy ``tree``'s arrays into ``buf`` (a writable buffer).

    Returns ``(spec, end_offset)``; ``spec`` is picklable and, together
    with the buffer, sufficient for :func:`attach_tree`.
    """
    table, end = tree_spec_arrays(tree, offset)
    for (name, dtype, shape, off) in table:
        src = getattr(tree, name)
        dst = np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)
        dst[...] = src
    spec = {
        "arrays": table,
        "scalars": {name: getattr(tree, name) for name in _SCALAR_FIELDS},
    }
    return spec, end


def attach_tree(spec: dict, buf) -> KDTree:
    """Reconstruct a ``KDTree`` over zero-copy views into ``buf``.

    The returned tree answers every query (on either path) identically to
    the packed original; its arrays are read-only views, so it must not
    be mutated (no erase/insert) and must not outlive the buffer.
    """
    tree = KDTree.__new__(KDTree)
    for name, value in spec["scalars"].items():
        setattr(tree, name, value)
    for (name, dtype, shape, off) in spec["arrays"]:
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)
        view.flags.writeable = False
        setattr(tree, name, view)
    return tree
