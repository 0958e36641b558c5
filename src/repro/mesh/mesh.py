"""Global (serial) mesh container.

A :class:`Mesh` is the pre-partitioning description of the discretized
domain: node coordinates, element connectivity, element type.  The
partitioners in :mod:`repro.partition` turn it into per-rank local meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.element import ElementType, corner_faces, face_nodes
from repro.util.arrays import as_f64, as_index, INDEX_DTYPE


@dataclass
class Mesh:
    """An unpartitioned finite-element mesh.

    Attributes
    ----------
    coords:
        ``(n_nodes, 3)`` node coordinates.
    conn:
        ``(n_elements, nodes_per_element)`` node indices, in the library's
        local node order (see :mod:`repro.mesh.element`).
    etype:
        The element type (single element type per mesh).
    """

    coords: np.ndarray
    conn: np.ndarray
    etype: ElementType
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.coords = as_f64(self.coords)
        self.conn = as_index(self.conn)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError("coords must have shape (n_nodes, 3)")
        if self.conn.ndim != 2 or self.conn.shape[1] != self.etype.n_nodes:
            raise ValueError(
                f"conn must have shape (n_elements, {self.etype.n_nodes})"
            )
        if self.conn.size and (
            self.conn.min() < 0 or self.conn.max() >= self.coords.shape[0]
        ):
            raise ValueError("connectivity references nonexistent nodes")

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.conn.shape[0]

    # ------------------------------------------------------------------
    # derived structures (cached)
    # ------------------------------------------------------------------

    def boundary_faces(self) -> np.ndarray:
        """``(F, 2)`` array of (element, local_face) pairs on the boundary.

        A face is on the boundary iff its corner-node set occurs in exactly
        one element.
        """
        if "boundary_faces" in self._cache:
            return self._cache["boundary_faces"]
        faces = corner_faces(self.etype)
        keys = []
        owners = []
        for fi, face in enumerate(faces):
            k = np.sort(self.conn[:, list(face)], axis=1)
            keys.append(k)
            owner = np.empty((self.n_elements, 2), dtype=INDEX_DTYPE)
            owner[:, 0] = np.arange(self.n_elements)
            owner[:, 1] = fi
            owners.append(owner)
        allkeys = np.vstack(keys)
        allowners = np.vstack(owners)
        view = np.ascontiguousarray(allkeys).view(
            [("", allkeys.dtype)] * allkeys.shape[1]
        ).reshape(-1)
        _, inverse, counts = np.unique(view, return_inverse=True, return_counts=True)
        boundary = allowners[counts[inverse] == 1]
        self._cache["boundary_faces"] = boundary
        return boundary

    def boundary_nodes(self) -> np.ndarray:
        """Sorted global indices of every node on the domain boundary
        (corner and higher-order nodes alike)."""
        if "boundary_nodes" in self._cache:
            return self._cache["boundary_nodes"]
        fnodes = face_nodes(self.etype)
        ids = [
            self.conn[e, list(fnodes[f])] for e, f in self.boundary_faces()
        ]
        out = (
            np.unique(np.concatenate(ids))
            if ids
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        self._cache["boundary_nodes"] = out
        return out

    def node_elements(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style node→element adjacency ``(offsets, elements)``."""
        if "node_elements" in self._cache:
            return self._cache["node_elements"]
        flat_nodes = self.conn.reshape(-1)
        flat_elems = np.repeat(
            np.arange(self.n_elements, dtype=INDEX_DTYPE), self.etype.n_nodes
        )
        order = np.argsort(flat_nodes, kind="stable")
        sorted_nodes = flat_nodes[order]
        sorted_elems = flat_elems[order]
        counts = np.bincount(sorted_nodes, minlength=self.n_nodes)
        offsets = np.zeros(self.n_nodes + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        self._cache["node_elements"] = (offsets, sorted_elems)
        return offsets, sorted_elems

    def dual_graph_edges(self) -> np.ndarray:
        """``(m, 2)`` element pairs sharing a face (the element dual graph).

        Used by the graph partitioner (METIS substitute).
        """
        if "dual_edges" in self._cache:
            return self._cache["dual_edges"]
        faces = corner_faces(self.etype)
        keys = np.vstack(
            [np.sort(self.conn[:, list(face)], axis=1) for face in faces]
        )
        elems = np.tile(np.arange(self.n_elements, dtype=INDEX_DTYPE), len(faces))
        view = np.ascontiguousarray(keys).view(
            [("", keys.dtype)] * keys.shape[1]
        ).reshape(-1)
        order = np.argsort(view, kind="stable")
        sv = view[order]
        se = elems[order]
        same = sv[1:] == sv[:-1]
        pairs = np.stack([se[:-1][same], se[1:][same]], axis=1)
        self._cache["dual_edges"] = pairs
        return pairs

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def element_centroids(self) -> np.ndarray:
        """``(E, 3)`` centroids of the corner nodes of each element."""
        nc = self.etype.corner_count
        return self.coords[self.conn[:, :nc]].mean(axis=1)
