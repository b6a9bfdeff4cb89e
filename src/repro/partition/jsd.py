"""KL and Jensen–Shannon divergence between probability histograms (§IV)."""
from __future__ import annotations

import numpy as np

__all__ = ["kld", "jsd", "jsd_matrix"]


def kld(a: np.ndarray, b: np.ndarray) -> float:
    """Kullback–Leibler divergence KLD(a ‖ b); inputs sum to 1, positive."""
    return float(np.sum(a * np.log(a / b)))


def jsd(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Jensen–Shannon divergence as defined in §IV:

    JSD(A ‖ B) = (KLD(A ‖ B) + KLD(B ‖ A)) / 2.
    """
    return (kld(a, b) + kld(b, a)) / 2.0


def jsd_matrix(
    H: np.ndarray, centers: np.ndarray, log_H: np.ndarray | None = None
) -> np.ndarray:
    """(n_hist, n_centers) JSD distances as two matrix products.

    Expanding both KLDs, JSD(h ‖ c) = ½(Σ h·log h − h·log c − log h·c +
    Σ c·log c). ``log_H`` is ``np.log(H)`` for a caller that compares the
    same ``H`` with many sets of centers.
    """
    log_H = np.log(H) if log_H is None else log_H
    log_C = np.log(centers)
    h_log_h = np.einsum("ij,ij->i", H, log_H)
    c_log_c = np.einsum("ij,ij->i", centers, log_C)
    return 0.5 * (h_log_h[:, None] - H @ log_C.T - log_H @ centers.T + c_log_c)
