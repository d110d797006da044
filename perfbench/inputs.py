"""Deterministic benchmark inputs, made from a seed.

Every workload draws its names from one generator so the same seed always
gives byte-identical files:

* the reference list is the repo's fixed 10,000-name ``top_sites`` list;
* the IDN pool mixes plain IDNs (CJK, Hangul, kana, Latin with diacritics)
  with homographs minted from reference labels through the attacker
  substitution table, about a third of them homographs;
* a zone is a bulk of distinct ASCII ``.com`` names made with NumPy (fast
  even at millions of names) with the IDN pool scattered through it at the
  paper-scaled share of 0.67 %;
* serve_stream's requests draw from the scan_zone population with Zipf
  popularity, 0.67 % of them asking about an IDN.

Names are distinct within every scan input, so a cache keyed by name can
never show a gain here that a real zone would not give.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

#: The paper's reference list size (Alexa top-10k).
REFERENCE_COUNT = 10_000
#: Names in the scan_zone input, which serve_stream draws its requests from.
ZONE_NAMES = 2_000_000
#: IDN share of the registered .com names (955,512 IDNs of ~141 M names).
IDN_SHARE = 0.0067
#: Share of the IDN pool minted as homographs of a reference label.
HOMOGRAPH_SHARE = 1 / 3

# Mostly letters, some digits, as in registered names: a 1000-slot lookup
# table turns uniform integers into weighted characters.
_ALPHABET = np.frombuffer(
    b"abcdefghijklmnopqrstuvwxyz" * 37 + b"0123456789" * 3 + b"abcdefghijklmnopqrstuvwxyz"[:8],
    dtype=np.uint8,
)
_SUFFIX = np.frombuffer(b".com\n", dtype=np.uint8)
_MIN_LABEL, _MAX_LABEL = 4, 16

# Plain-IDN scripts: (code point ranges, label length range), weighted
# roughly like the paper's Table 7 language mix.
_SCRIPTS = (
    (((0x4E00, 0x9FA5),), (2, 5), 0.47),                     # Chinese
    (((0xAC00, 0xD7A3),), (2, 5), 0.11),                     # Korean
    (((0x3041, 0x3093), (0x30A1, 0x30F3)), (3, 7), 0.09),    # Japanese kana
)
_DIACRITICS = "äöüßéèêàçñøåığşıöüçáíóúãõ"


def reference_domains() -> list[str]:
    """The fixed 10,000-name reference list every workload uses."""
    from repro.measurement.alexa import ReferenceList

    return ReferenceList.top_sites(REFERENCE_COUNT).domains()


def _plain_label(rng: random.Random) -> str:
    pick = rng.random()
    acc = 0.0
    for ranges, (low, high), weight in _SCRIPTS:
        acc += weight
        if pick < acc:
            return "".join(
                chr(rng.randint(*rng.choice(ranges))) for _ in range(rng.randint(low, high))
            )
    # Latin-script languages: an ASCII word with one or two diacritic letters.
    letters = [rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 10))]
    for _ in range(rng.randint(1, 2)):
        letters[rng.randrange(len(letters))] = rng.choice(_DIACRITICS)
    return "".join(letters)


def _homograph_label(rng: random.Random, labels: list[str]) -> str:
    from repro.measurement.domainlists import ATTACKER_SUBSTITUTIONS

    label = list(rng.choice(labels))
    spots = [i for i, ch in enumerate(label) if ch in ATTACKER_SUBSTITUTIONS]
    if not spots:
        return ""
    for position in rng.sample(spots, min(len(spots), 1 if rng.random() < 0.8 else 2)):
        label[position] = rng.choice(ATTACKER_SUBSTITUTIONS[label[position]])
    return "".join(label)


def idn_pool(seed: int, count: int, references: list[str]) -> list[str]:
    """*count* distinct ``xn--`` ``.com`` names, about a third homographs."""
    from repro.idn.idna_codec import IDNAError, to_ascii_label

    rng = random.Random(f"perfbench-idn-{seed}")
    labels = [domain.rsplit(".", 1)[0] for domain in references]
    seen: set[str] = set()
    names: list[str] = []
    while len(names) < count:
        if rng.random() < HOMOGRAPH_SHARE:
            unicode_label = _homograph_label(rng, labels)
        else:
            unicode_label = _plain_label(rng)
        if not unicode_label:
            continue
        try:
            ascii_label = to_ascii_label(unicode_label)
        except IDNAError:
            continue
        if not ascii_label.startswith("xn--") or ascii_label in seen:
            continue
        seen.add(ascii_label)
        names.append(ascii_label + ".com")
    return names


def _ascii_rows(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """*count* distinct random LDH labels as a padded byte matrix + lengths."""
    width = 24                       # label + ".com\n" + zero padding, 3 words
    rows = np.empty((0, width), dtype=np.uint8)
    lengths = np.empty(0, dtype=np.int64)
    while len(rows) < count:
        need = int((count - len(rows)) * 1.02) + 16
        new_lengths = rng.integers(_MIN_LABEL, _MAX_LABEL + 1, size=need)
        body = np.zeros((need, width), dtype=np.uint8)
        body[:, :_MAX_LABEL] = _ALPHABET[
            rng.integers(0, len(_ALPHABET), size=(need, _MAX_LABEL), dtype=np.uint16)]
        for column in range(_MIN_LABEL, width):
            offset = column - new_lengths
            in_suffix = (offset >= 0) & (offset < len(_SUFFIX))
            body[in_suffix, column] = _SUFFIX[offset[in_suffix]]
            body[offset >= len(_SUFFIX), column] = 0
        rows = np.concatenate([rows, body])
        lengths = np.concatenate([lengths, new_lengths])
        # Keep the first occurrence of every label, in generation order.  Equal
        # rows hash equal; a rare hash clash only drops a distinct label.
        words = rows.view(np.uint64)
        hashes = (words[:, 0] * np.uint64(0x9E3779B97F4A7C15)
                  ^ words[:, 1] * np.uint64(0xC2B2AE3D27D4EB4F) ^ words[:, 2])
        _, first = np.unique(hashes, return_index=True)
        keep = np.sort(first)
        rows, lengths = rows[keep], lengths[keep]
    return rows[:count], lengths[:count]


def zone_lines(seed: int, count: int, idns: list[str]) -> bytes:
    """A .com-like zone dump: *count* names, the *idns* scattered through it.

    The IDNs keep their order; the ASCII bulk fills the rest.  Returns the
    file body (one name per line).
    """
    rng = np.random.default_rng([seed, 7])
    rows, lengths = _ascii_rows(rng, count - len(idns))
    mask = np.arange(rows.shape[1])[None, :] < (lengths + len(_SUFFIX))[:, None]
    bulk = rows[mask].tobytes()
    ends = np.cumsum(lengths + len(_SUFFIX))
    slots = np.sort(rng.choice(count, size=len(idns), replace=False))
    # slots[i] is the IDN's line number; that many minus i ASCII lines precede it.
    cut = np.concatenate([[0], ends])[slots - np.arange(len(idns))]
    parts: list[bytes] = []
    previous = 0
    for offset, name in zip(cut.tolist(), idns):
        parts.append(bulk[previous:offset])
        parts.append(name.encode("ascii") + b"\n")
        previous = offset
    parts.append(bulk[previous:])
    return b"".join(parts)


def zone_idns(seed: int, count: int, references: list[str]) -> list[str]:
    """The IDNs of a *count*-name zone: the paper's 0.67 % share of it."""
    return idn_pool(seed, max(1, round(count * IDN_SHARE)), references)


def zone_population(seed: int, count: int, references: list[str]) -> list[str]:
    """*count* distinct zone names (ASCII bulk + 0.67 % IDNs) as a list.

    The same names, in the same order, as :func:`zone_lines` writes for the
    seed's zone.
    """
    return zone_lines(seed, count, zone_idns(seed, count, references)).decode("ascii").splitlines()


def poisson_schedule(
    seed: int,
    rate: float,
    seconds: float,
    connections: int,
    is_idn: np.ndarray,
    zipf_s: float,
) -> dict[str, np.ndarray]:
    """An open-loop request schedule: Poisson arrivals at *rate* per second.

    Returns send offsets in seconds (``offset``), the connection each
    request goes out on (``connection``) and the population index of the
    name it asks about (``name``, from :func:`request_names`).
    """
    rng = np.random.default_rng([seed, 11])
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected**0.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    return {
        "offset": offsets,
        "connection": rng.integers(0, connections, size=len(offsets)),
        "name": request_names(seed, len(offsets), is_idn, zipf_s),
    }


def request_names(seed: int, count: int, is_idn: np.ndarray, zipf_s: float,
                  draw: int = 0) -> np.ndarray:
    """Population indexes of *count* requests with Zipf popularity.

    Exactly ``round(count * IDN_SHARE)`` requests, at random positions, ask
    about an IDN (``is_idn`` marks them in the population); the rest ask
    about an ASCII name.  Within each class, popularity ranks are a seeded
    random order of its names, independent of where they sit in the
    population, and rank *r* is drawn with weight ``1 / r**zipf_s``.  Every
    *draw* of one seed shares that popularity order.
    """
    order_rng = np.random.default_rng([seed, 13])
    rng = np.random.default_rng([seed, 17, draw])
    names = np.empty(count, dtype=np.int64)
    asks_idn = np.zeros(count, dtype=bool)
    asks_idn[rng.choice(count, size=round(count * IDN_SHARE), replace=False)] = True
    for members, mask in ((np.flatnonzero(is_idn), asks_idn),
                          (np.flatnonzero(~is_idn), ~asks_idn)):
        by_rank = order_rng.permutation(members)
        weights = np.cumsum(1.0 / np.arange(1, len(by_rank) + 1) ** zipf_s)
        draws = rng.random(np.count_nonzero(mask)) * weights[-1]
        names[mask] = by_rank[np.searchsorted(weights, draws, side="right")]
    return names


def write(path: Path, data: bytes | list[str]) -> Path:
    """Write a name list (or raw bytes) to *path*."""
    if not isinstance(data, bytes):
        data = "".join(name + "\n" for name in data).encode("utf-8")
    path.write_bytes(data)
    return path
