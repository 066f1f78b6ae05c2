"""Transparency, robustness and security measures.

PSNR/SSIM quantify embedding distortion, BER/NCC score recovered marks,
and the histogram KL divergence plus mutual information measure how
detectable the hidden data is statistically.  All log-based quantities
are in nats except PSNR (dB).
"""

import math

import numpy as np
from scipy import ndimage

from .pixmap import input_image, quantize

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
DYNAMIC_RANGE = 255.0


def _check_same_shape(a, b):
    a = np.asarray(input_image(a, "first"), dtype=np.float64)
    b = np.asarray(input_image(b, "second"), dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def psnr(a, b):
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    a, b = _check_same_shape(a, b)
    diff = a - b
    diff *= diff
    mse = np.mean(diff)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(DYNAMIC_RANGE ** 2 / mse)


def _gaussian_kernel_1d():
    half = SSIM_WINDOW // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    k = np.exp(-(x ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return k / k.sum()


def _window_mean(img, kernel):
    # separable gaussian; the margin crop below keeps only full windows,
    # so the boundary mode never influences the result
    out = ndimage.correlate1d(img, kernel, axis=0, mode="nearest")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="nearest")
    half = SSIM_WINDOW // 2
    return out[half:-half, half:-half]


def ssim(a, b):
    """Mean local SSIM over 11x11 gaussian windows (sigma 1.5)."""
    a, b = _check_same_shape(a, b)
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(
            f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM, "
            f"got {a.shape}")
    kernel = _gaussian_kernel_1d()
    c1 = (SSIM_K1 * DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * DYNAMIC_RANGE) ** 2

    mu_a = _window_mean(a, kernel)
    mu_b = _window_mean(b, kernel)
    var_a = _window_mean(a * a, kernel) - mu_a ** 2
    var_b = _window_mean(b * b, kernel) - mu_b ** 2
    cov = _window_mean(a * b, kernel) - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return min(float(np.mean(num / den)), 1.0)


def ber(truth, est):
    """Fraction of mismatched mark bits."""
    truth = np.asarray(truth)
    est = np.asarray(est)
    if truth.shape != est.shape:
        raise ValueError(f"mark shape mismatch: {truth.shape} vs {est.shape}")
    return float(np.mean(truth != est))


def ncc(truth, est):
    """Normalized cross-correlation of two bipolar marks.

    For {-1,+1} marks this is the mean bit agreement and satisfies
    ncc = 1 - 2*ber exactly.
    """
    truth = np.asarray(truth, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if truth.shape != est.shape:
        raise ValueError(f"mark shape mismatch: {truth.shape} vs {est.shape}")
    denom = math.sqrt(float((truth ** 2).sum()) * float((est ** 2).sum()))
    if denom == 0.0:
        return 0.0
    return float((truth * est).sum()) / denom


def _gray_histogram(img):
    return np.bincount(quantize(img).astype(np.int64).ravel(), minlength=256)


def _smoothed(hist_counts):
    # additive smoothing keeps every bin positive so the logs stay finite
    eps = 1.0 / (4.0 * hist_counts.sum())
    smoothed = hist_counts + eps
    return smoothed / smoothed.sum()


def kl_security(cover, stego):
    """KL divergence D(P||Q) of gray-level histograms, cover vs stego.

    Smaller means the marked image is statistically harder to detect.
    """
    cover, stego = _check_same_shape(cover, stego)
    p = _smoothed(_gray_histogram(cover))
    q = _smoothed(_gray_histogram(stego))
    value = float(np.sum(p * np.log(p / q)))
    return max(value, 0.0)


def mutual_information(cover, stego):
    """I(X;Y) in nats from the joint gray-level histogram of pixel pairs."""
    cover, stego = _check_same_shape(cover, stego)
    x = quantize(cover).astype(np.int64).ravel()
    y = quantize(stego).astype(np.int64).ravel()
    joint = _smoothed(np.bincount(x * 256 + y, minlength=256 * 256))
    joint = joint.reshape(256, 256)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    value = float(np.sum(joint * np.log(joint / np.outer(px, py))))
    return max(value, 0.0)
