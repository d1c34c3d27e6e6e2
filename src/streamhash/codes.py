"""Bit-packed binary codes and Hamming-distance kernels.

A binary code is a length-K vector with entries in {-1, +1}. Packed form
stores bit i of a code at bit position (i % 64) of 64-bit word (i // 64),
i.e. little-endian within and across words. Trailing pad bits of the last
word are zero. The layout is enforced with explicit '<u8' dtypes so packed
bytes are identical on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64


def sign(values: np.ndarray) -> np.ndarray:
    """Elementwise sign with the convention sign(0) = +1, as int8."""
    return np.where(np.asarray(values) >= 0, 1, -1).astype(np.int8)


def words_per_code(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


def validate_code(bits, nbits: int | None = None) -> np.ndarray:
    """Check a +-1 code vector and return it as int8."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError(f"code must be 1-D, got shape {bits.shape}")
    if bits.size < 1:
        raise ValueError("code must have at least one bit")
    if nbits is not None and bits.size != nbits:
        raise ValueError(f"code length {bits.size} != expected {nbits}")
    if not np.all(np.abs(bits) == 1):
        raise ValueError("code entries must be -1 or +1")
    return bits.astype(np.int8, copy=False)


@dataclass(frozen=True, eq=False)
class PackedCode:
    """A single packed code: uint64 words plus the unpadded bit count."""

    words: np.ndarray
    nbits: int


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack an (N, K) matrix of +-1 codes into (N, ceil(K/64)) uint64 words."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D code matrix, got shape {bits.shape}")
    if bits.shape[1] < 1:
        raise ValueError("codes must have at least one bit")
    return pack_bools(bits > 0)


def pack_bools(on: np.ndarray) -> np.ndarray:
    """Pack an (N, K) boolean matrix, True for +1, into (N, ceil(K/64)) uint64 words."""
    n, nbits = on.shape
    out = np.zeros((n, words_per_code(nbits)), dtype="<u8")
    out.view(np.uint8)[:, : (nbits + 7) // 8] = np.packbits(on, axis=1, bitorder="little")
    return out


def unpack_rows(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of pack_rows: (N, W) words -> (N, nbits) int8 +-1 matrix."""
    words = np.ascontiguousarray(words, dtype="<u8")
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D word matrix, got shape {words.shape}")
    if words.shape[1] != words_per_code(nbits):
        raise ValueError(f"{words.shape[1]} words cannot hold {nbits} bits")
    raw = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    bits01 = raw[:, :nbits].astype(np.int8)
    return 2 * bits01 - 1


def pack_code(bits, nbits: int | None = None) -> PackedCode:
    """Pack one +-1 code vector."""
    bits = validate_code(bits, nbits)
    words = pack_rows(bits[None, :])[0]
    words.setflags(write=False)
    return PackedCode(words=words, nbits=bits.size)


def unpack_code(code: PackedCode) -> np.ndarray:
    """Recover the +-1 int8 vector from a packed code."""
    return unpack_rows(code.words[None, :], code.nbits)[0]


def hamming(a: PackedCode, b: PackedCode) -> int:
    """Hamming distance between two packed codes of equal length."""
    if a.nbits != b.nbits:
        raise ValueError(f"code lengths differ: {a.nbits} != {b.nbits}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


def hamming_rows(query_words: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Hamming distances from one packed code to every row of a word matrix.

    Counts accumulate word by word in the narrowest unsigned dtype that
    holds 64 * W (uint8 up to 192 bits, uint16 above), so a stable sort of
    the result is a radix sort.
    """
    out = np.bitwise_count(words[:, 0] ^ query_words[0])
    out = out.astype(np.min_scalar_type(WORD_BITS * words.shape[1]), copy=False)
    for w in range(1, words.shape[1]):
        out += np.bitwise_count(words[:, w] ^ query_words[w])
    return out
