"""GF(2^8) arithmetic.

The field of 256 elements with the AES/Rijndael-compatible reduction
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D) and generator 2.
Multiplication uses exp/log tables; the same tables back the vectorised
numpy kernels used by the Reed-Solomon encoder.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EXP",
    "LOG",
    "MUL",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_mul_vec",
]

_POLY = 0x11D

# exp table doubled in length so gf_mul can skip a modulo 255.
EXP = np.zeros(512, dtype=np.uint8)
LOG = np.zeros(256, dtype=np.int32)

_value = 1
for _power in range(255):
    EXP[_power] = _value
    LOG[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= _POLY
for _power in range(255, 512):
    EXP[_power] = EXP[_power - 255]

# Full 256x256 product table (64 KiB).  ``MUL[a, b] == gf_mul(a, b)`` —
# one fancy-indexed row lookup replaces the log/exp + nonzero-mask dance
# in the vectorised kernels.
MUL = EXP[LOG[:, None] + LOG[None, :]].copy()
MUL[0, :] = 0
MUL[:, 0] = 0
MUL.setflags(write=False)


def gf_add(a: int, b: int) -> int:
    """Addition in GF(2^8) is XOR."""
    return (a ^ b) & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP[int(LOG[a]) + int(LOG[b])])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; 0 has none."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return int(EXP[255 - int(LOG[a])])


def gf_div(a: int, b: int) -> int:
    """Divide *a* by *b*."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(EXP[int(LOG[a]) - int(LOG[b]) + 255])


def gf_pow(a: int, exponent: int) -> int:
    """Raise *a* to an integer power (negative powers via the inverse)."""
    if a == 0:
        if exponent == 0:
            return 1
        if exponent < 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^8)")
        return 0
    log_a = int(LOG[a])
    return int(EXP[(log_a * exponent) % 255])


def gf_mul_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
    """Multiply every byte of *vec* by *scalar* (vectorised)."""
    if scalar == 0:
        return np.zeros_like(vec)
    if scalar == 1:
        return vec.copy()
    return MUL[scalar][vec]
