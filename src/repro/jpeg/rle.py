"""DC differential coding and AC run-length coding of quantized blocks.

Quantized blocks (already in zig-zag order) are translated into the symbol
stream of baseline JPEG: the DC coefficient of each block is coded as the
difference from the previous block's DC (DPCM) using a size category plus
magnitude bits, and the 63 AC coefficients are coded as
``(zero-run, size)`` symbols with ZRL (16-zero run) and EOB (end of block)
escapes.

Two implementations coexist.  :func:`encode_dc` / :func:`encode_ac` are
the scalar reference, one token at a time.  :func:`tokenize_blocks` is
the vectorized fast path: it derives the complete token stream of an
``(N, 64)`` block stack — DPCM diffs, magnitude categories, zero runs,
ZRL/EOB escapes and ``(run, size)`` symbols — with whole-array NumPy
ops, emitting parallel ``symbols`` / ``amplitudes`` / ``amplitude
lengths`` arrays instead of per-token dataclasses.  The two paths
produce identical streams; the tests assert bit-for-bit parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.jpeg.bitstream import (
    encode_magnitude,
    encode_magnitude_array,
    magnitude_category,
)

#: End-of-block AC symbol.
EOB_SYMBOL = 0x00
#: Zero-run-length AC symbol (a run of 16 zeros).
ZRL_SYMBOL = 0xF0
#: Longest zero run expressible in a single (run, size) symbol.
MAX_ZERO_RUN = 15


@dataclass(frozen=True)
class AcToken:
    """One AC entropy-coding token.

    ``symbol`` packs the zero run in the high nibble and the magnitude
    category in the low nibble.  ``amplitude_bits``/``amplitude_length``
    are the raw magnitude bits appended after the Huffman code for the
    symbol (zero-length for EOB and ZRL).
    """

    symbol: int
    amplitude_bits: int
    amplitude_length: int


@dataclass(frozen=True)
class DcToken:
    """One DC entropy-coding token (size category plus magnitude bits)."""

    symbol: int
    amplitude_bits: int
    amplitude_length: int


#: Offset added to DC symbols inside :class:`TokenStream`, so one dense
#: 512-entry lookup array can code a mixed DC/AC stream in a single
#: fancy-indexing pass.
DC_SYMBOL_OFFSET = 256


@dataclass(frozen=True)
class TokenStream:
    """The complete entropy-coding token stream of a block stack.

    Parallel arrays, one entry per token, in coding order (each block:
    DC token, then its AC tokens, then EOB where applicable).

    Attributes
    ----------
    symbols:
        Combined coding index of each token: AC symbols are 0–255, DC
        symbols are the size category plus :data:`DC_SYMBOL_OFFSET`.
    amplitudes:
        Raw magnitude bits appended after each Huffman code.
    amplitude_lengths:
        Bit length of each amplitude (0 for EOB/ZRL and zero DC diffs).
    block_token_counts:
        Number of tokens contributed by each block, so callers can split
        the stream at block (or image) boundaries.
    """

    symbols: np.ndarray
    amplitudes: np.ndarray
    amplitude_lengths: np.ndarray
    block_token_counts: np.ndarray

    def __len__(self) -> int:
        return int(self.symbols.shape[0])


def encode_dc(dc_value: int, previous_dc: int) -> DcToken:
    """DPCM-encode a block's DC coefficient against the previous block's."""
    diff = int(dc_value) - int(previous_dc)
    category = magnitude_category(diff)
    bits, length = encode_magnitude(diff)
    return DcToken(symbol=category, amplitude_bits=bits, amplitude_length=length)


def encode_ac(ac_coefficients: np.ndarray) -> "list[AcToken]":
    """Run-length encode the 63 zig-zag-ordered AC coefficients of a block."""
    ac_coefficients = np.asarray(ac_coefficients)
    if ac_coefficients.shape != (63,):
        raise ValueError(
            f"expected 63 AC coefficients, got shape {ac_coefficients.shape}"
        )
    tokens = []
    run = 0
    for value in ac_coefficients:
        value = int(value)
        if value == 0:
            run += 1
            continue
        while run > MAX_ZERO_RUN:
            tokens.append(AcToken(ZRL_SYMBOL, 0, 0))
            run -= MAX_ZERO_RUN + 1
        category = magnitude_category(value)
        bits, length = encode_magnitude(value)
        tokens.append(
            AcToken(symbol=(run << 4) | category, amplitude_bits=bits,
                    amplitude_length=length)
        )
        run = 0
    if run > 0:
        tokens.append(AcToken(EOB_SYMBOL, 0, 0))
    return tokens


def decode_ac(tokens: "list[AcToken]") -> np.ndarray:
    """Invert :func:`encode_ac`, returning the 63 AC coefficients."""
    from repro.jpeg.bitstream import decode_magnitude

    coefficients = np.zeros(63, dtype=np.int32)
    position = 0
    for token in tokens:
        if token.symbol == EOB_SYMBOL:
            break
        if token.symbol == ZRL_SYMBOL:
            position += MAX_ZERO_RUN + 1
            continue
        run = token.symbol >> 4
        category = token.symbol & 0x0F
        position += run
        if position >= 63:
            raise ValueError("AC token stream overruns the block")
        coefficients[position] = decode_magnitude(
            token.amplitude_bits, category
        )
        position += 1
    return coefficients


def block_run_stats(
    zz: np.ndarray, reset_interval: int = 0
) -> tuple:
    """Shared DC/AC run derivation of the vectorized coders.

    For an already-validated ``(N, 64)`` int64 stack, returns
    ``(diffs, ac, rows, cols, ac_values, zrl_counts, runs, has_eob)``:
    the DPCM DC differences (with the predictor reset every
    ``reset_interval`` blocks when nonzero), the ``(N, 63)`` AC view,
    the row/column indices and values of its nonzeros, the zero run
    preceding each nonzero with its ZRL-escape count, and the per-block
    end-of-block flags.  Both :func:`tokenize_blocks` and the fused
    coder in :mod:`repro.jpeg.codec` build on this so the run/DPCM
    semantics cannot drift apart.
    """
    n_blocks = zz.shape[0]
    dc = zz[:, 0]
    previous = np.empty(n_blocks, dtype=np.int64)
    previous[0] = 0
    previous[1:] = dc[:-1]
    if reset_interval:
        previous[::reset_interval] = 0
    diffs = dc - previous

    ac = zz[:, 1:]
    rows, cols = np.nonzero(ac)
    n_nonzero = rows.shape[0]
    if n_nonzero:
        ac_values = ac[rows, cols]
        previous_cols = np.empty(n_nonzero, dtype=np.int64)
        # A sentinel of -1 makes `cols - previous_cols - 1` the run
        # length for the first nonzero of each block too.
        previous_cols[0] = -1
        previous_cols[1:] = cols[:-1]
        first_mask = np.empty(n_nonzero, dtype=bool)
        first_mask[0] = False
        first_mask[1:] = rows[1:] != rows[:-1]
        previous_cols[first_mask] = -1
        runs = cols - previous_cols - 1
        zrl_counts = runs >> 4
    else:
        ac_values = np.empty(0, dtype=np.int64)
        runs = np.empty(0, dtype=np.int64)
        zrl_counts = np.empty(0, dtype=np.int64)
    has_eob = ac[:, -1] == 0
    return diffs, ac, rows, cols, ac_values, zrl_counts, runs, has_eob


def tokenize_blocks(
    zigzag_blocks: np.ndarray, reset_interval: int = 0
) -> TokenStream:
    """Vectorized tokenization of a zig-zag quantized ``(N, 64)`` stack.

    Produces exactly the token sequence the scalar :func:`encode_dc` /
    :func:`encode_ac` pair would emit block by block, as parallel arrays.

    Parameters
    ----------
    zigzag_blocks:
        Stack of shape ``(N, 64)`` in coding order.
    reset_interval:
        If nonzero, the DC predictor resets to 0 every ``reset_interval``
        blocks — used to tokenize a whole batch of images in one call
        (each image of ``B`` blocks predicts only within itself).
    """
    zz = np.asarray(zigzag_blocks, dtype=np.int64)
    if zz.ndim != 2 or zz.shape[1] != 64:
        raise ValueError(
            f"expected blocks of shape (N, 64), got {zz.shape}"
        )
    n_blocks = zz.shape[0]
    if n_blocks == 0:
        empty_i64 = np.empty(0, dtype=np.int64)
        return TokenStream(
            symbols=empty_i64.copy(), amplitudes=empty_i64.copy(),
            amplitude_lengths=empty_i64.copy(),
            block_token_counts=empty_i64.copy(),
        )

    diffs, ac, rows, cols, ac_values, zrl_counts, runs, has_eob = (
        block_run_stats(zz, reset_interval)
    )
    n_nonzero = rows.shape[0]

    # One fused magnitude pass over DC diffs and AC values.
    amplitudes, categories = encode_magnitude_array(
        np.concatenate([diffs, ac_values])
    )
    dc_amplitudes = amplitudes[:n_blocks]
    dc_categories = categories[:n_blocks]
    if int(dc_categories.max()) > 16:
        # Categories above 16 cannot be represented by any baseline
        # table and exceed what the table-driven decoder can invert.
        raise ValueError(
            "DC difference magnitude exceeds the baseline JPEG range "
            "(size category > 16)"
        )

    if n_nonzero:
        ac_categories = categories[n_blocks:]
        if int(ac_categories.max()) > 15:
            # The (run, size) symbol packs the category into 4 bits; a
            # larger category would alias into the run field and encode
            # a silently corrupt stream.
            raise ValueError(
                "AC coefficient magnitude exceeds the baseline JPEG "
                "range (size category > 15)"
            )
        ac_symbols = ((runs & MAX_ZERO_RUN) << 4) | ac_categories
        tokens_per_nonzero = zrl_counts + 1
        ac_tokens_per_block = np.bincount(
            rows, weights=tokens_per_nonzero, minlength=n_blocks
        ).astype(np.int64)
    else:
        ac_tokens_per_block = np.zeros(n_blocks, dtype=np.int64)
    block_token_counts = 1 + ac_tokens_per_block + has_eob
    block_starts = np.empty(n_blocks, dtype=np.int64)
    block_starts[0] = 0
    np.cumsum(block_token_counts[:-1], out=block_starts[1:])
    total_tokens = int(block_starts[-1] + block_token_counts[-1])

    # Fill with ZRL; every position not overwritten below is a ZRL escape
    # (their amplitudes stay zero-length, as do EOB amplitudes).
    symbols = np.full(total_tokens, ZRL_SYMBOL, dtype=np.int64)
    amplitude_values = np.zeros(total_tokens, dtype=np.int64)
    amplitude_lengths = np.zeros(total_tokens, dtype=np.int64)

    symbols[block_starts] = dc_categories + DC_SYMBOL_OFFSET
    amplitude_values[block_starts] = dc_amplitudes
    amplitude_lengths[block_starts] = dc_categories

    if n_nonzero:
        # Position of each nonzero's (run, size) token: after the block's
        # DC token, the tokens of earlier nonzeros in the block, and its
        # own ZRL escapes.
        exclusive = np.empty(n_nonzero, dtype=np.int64)
        exclusive[0] = 0
        np.cumsum(tokens_per_nonzero[:-1], out=exclusive[1:])
        before_block = np.empty(n_blocks, dtype=np.int64)
        before_block[0] = 0
        np.cumsum(ac_tokens_per_block[:-1], out=before_block[1:])
        positions = (
            block_starts[rows] + 1 + exclusive - before_block[rows]
            + zrl_counts
        )
        symbols[positions] = ac_symbols
        amplitude_values[positions] = amplitudes[n_blocks:]
        amplitude_lengths[positions] = ac_categories

    eob_positions = (block_starts + block_token_counts - 1)[has_eob]
    symbols[eob_positions] = EOB_SYMBOL

    return TokenStream(
        symbols=symbols,
        amplitudes=amplitude_values,
        amplitude_lengths=amplitude_lengths,
        block_token_counts=block_token_counts,
    )


def block_symbol_histograms(
    zigzag_blocks: np.ndarray,
) -> "tuple[dict, dict]":
    """Count DC and AC symbols over a stack of zig-zag quantized blocks.

    Used to build optimized Huffman tables.  ``zigzag_blocks`` has shape
    ``(N, 64)`` and must be ordered as they will be entropy coded, because
    DC symbols depend on the DPCM predecessor.  Computed with one
    vectorized tokenization plus ``np.bincount``.
    """
    stream = tokenize_blocks(zigzag_blocks)
    histogram = np.bincount(
        stream.symbols, minlength=2 * DC_SYMBOL_OFFSET
    )
    dc_counts = {
        int(symbol): int(count)
        for symbol, count in enumerate(histogram[DC_SYMBOL_OFFSET:]) if count
    }
    ac_counts = {
        int(symbol): int(count)
        for symbol, count in enumerate(histogram[:DC_SYMBOL_OFFSET]) if count
    }
    return dc_counts, ac_counts
