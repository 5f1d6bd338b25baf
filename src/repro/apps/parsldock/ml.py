"""The ML surrogate guiding the docking campaign.

Ridge regression on simple molecular fingerprints, in pure Python: the
fit builds the 9×9 normal equations (eight features plus a bias) and
solves them by Gaussian elimination. The campaign trains on
already-docked candidates and ranks the rest by predicted score,
docking the most promising next; the test suite checks the surrogate
actually beats random ordering on held-out data.
"""

from __future__ import annotations

import math
from operator import mul
from typing import List, Optional, Sequence, Tuple

from repro.apps.parsldock.chemistry import Molecule, parse_smiles

FINGERPRINT_SIZE = 8


def fingerprint(molecule: Molecule) -> Tuple[float, ...]:
    """A fixed-length descriptor: composition + topology features."""
    counts = {symbol: 0 for symbol in ("C", "N", "O", "S", "F")}
    for atom in molecule.atoms:
        if atom in counts:
            counts[atom] += 1
    return (
        float(molecule.heavy_atom_count),
        float(molecule.implicit_hydrogens),
        float(molecule.ring_count),
        float(counts["C"]),
        float(counts["N"] + counts["O"]),
        float(counts["S"] + counts["F"]),
        float(len(molecule.bonds)),
        molecule.molecular_weight / 100.0,
    )


def _solve(a: List[List[float]], b: List[float]) -> List[float]:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting."""
    n = len(b)
    m = [row + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        head = m[col]
        for row in m[col + 1:]:
            factor = row[col] / head[col]
            for c in range(col, n + 1):
                row[c] -= factor * head[c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        tail = sum(m[r][c] * x[c] for c in range(r + 1, n))
        x[r] = (m[r][n] - tail) / m[r][r]
    return x


class SurrogateModel:
    """Ridge regression: fingerprints → docking scores."""

    def __init__(self, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self._weights: Optional[List[float]] = None
        self._mean: Sequence[float] = ()
        self._scale: Sequence[float] = ()

    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    def _standardize(self, smiles: str) -> List[float]:
        """A standardized fingerprint with a trailing bias 1.0."""
        return [
            (value - mean) / scale
            for value, mean, scale in zip(
                fingerprint(parse_smiles(smiles)), self._mean, self._scale
            )
        ] + [1.0]

    def fit(self, smiles: Sequence[str], scores: Sequence[float]) -> "SurrogateModel":
        if len(smiles) != len(scores):
            raise ValueError("smiles and scores must have equal length")
        if len(smiles) < 2:
            raise ValueError("need at least two training samples")
        columns = list(zip(*(fingerprint(parse_smiles(s)) for s in smiles)))
        n = len(smiles)
        self._mean = [sum(column) / n for column in columns]
        self._scale = [
            math.sqrt(sum((v - mean) ** 2 for v in column) / n) or 1.0
            for column, mean in zip(columns, self._mean)
        ]
        design = [
            [(v - mean) / scale for v in column]
            for column, mean, scale in zip(columns, self._mean, self._scale)
        ] + [[1.0] * n]  # bias column
        # ridge penalty on every weight but the bias; it keeps the
        # normal equations positive definite
        gram = [
            [
                sum(map(mul, a, b))
                + (self.alpha if i == j < FINGERPRINT_SIZE else 0.0)
                for j, b in enumerate(design)
            ]
            for i, a in enumerate(design)
        ]
        y = [float(score) for score in scores]
        self._weights = _solve(gram, [sum(map(mul, a, y)) for a in design])
        return self

    def predict(self, smiles: Sequence[str]) -> List[float]:
        if self._weights is None:
            raise RuntimeError("model is not fitted")
        weights = self._weights
        return [sum(map(mul, self._standardize(s), weights)) for s in smiles]

    def rank(self, smiles: Sequence[str]) -> List[str]:
        """Candidates sorted most-promising (lowest predicted score) first.

        The sort is stable: exactly tied predictions keep library order.
        """
        predictions = self.predict(smiles)
        order = sorted(range(len(smiles)), key=predictions.__getitem__)
        return [smiles[i] for i in order]
