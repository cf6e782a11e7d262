"""FCIDUMP interchange for electronic integrals.

The format is the usual Fortran-namelist header followed by value lines
``E i j k l`` with 1-based indices in chemists' order; ``E i j 0 0`` carries
one-body elements and ``E 0 0 0 0`` the core energy.  FCIDUMP is spin-free,
so the spin-resolved channels are collapsed on write; a warning is issued
when that loses information (the on-site same-spin component never
contributes to any matrix element, so it is exempt).
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import ValidationError
from .model import ElectronicIntegrals, read_text

_FLOAT_FMT = "%21.15g"


def write_fcidump(ints: ElectronicIntegrals, path, nelec: int = 0) -> None:
    """Write integrals in spin-free FCIDUMP form, with ``MS2=0`` and without
    zero entries."""
    if ints.is_complex:
        raise ValidationError("FCIDUMP export supports real integrals only")
    m = ints.n_orbitals
    gss = ints.two_body_same_spin
    gos = ints.two_body_opposite_spin
    diff = np.abs(gss - gos)
    for p in range(m):
        diff[p, p, p, p] = 0.0
    if diff.max(initial=0.0) > 1e-12:
        warnings.warn(
            "spin-resolved channels differ; FCIDUMP output keeps the "
            "opposite-spin channel and is lossy",
            stacklevel=2,
        )
    g = gos
    with open(path, "w") as fh:
        fh.write(f"&FCI NORB={m},NELEC={nelec},MS2=0,\n")
        fh.write(" ORBSYM=" + "1," * m + "\n")
        fh.write(" ISYM=1,\n")
        fh.write("&END\n")
        for i in range(m):
            for j in range(i + 1):
                ij = i * (i + 1) // 2 + j
                for k in range(m):
                    for l in range(k + 1):
                        kl = k * (k + 1) // 2 + l
                        if ij < kl:
                            continue
                        val = g[i, j, k, l]
                        if val != 0.0:
                            fh.write(f"{_FLOAT_FMT % val} {i+1:4d} {j+1:4d} {k+1:4d} {l+1:4d}\n")
        h = ints.one_body
        for i in range(m):
            for j in range(i + 1):
                if h[i, j] != 0.0:
                    fh.write(f"{_FLOAT_FMT % h[i, j]} {i+1:4d} {j+1:4d} {0:4d} {0:4d}\n")
        fh.write(f"{_FLOAT_FMT % ints.core_energy} {0:4d} {0:4d} {0:4d} {0:4d}\n")


def read_fcidump(path) -> ElectronicIntegrals:
    """Read a spin-free FCIDUMP file into spin-resolved integrals.

    Both spin channels are set to the spin-free tensor, which reproduces the
    conventional spin-summed Hamiltonian.
    """
    text = read_text(path)
    header_match = re.search(r"&FCI(.*?)(?:&END|/)", text, re.S | re.I)
    if not header_match:
        raise ValidationError(f"{path}: missing &FCI ... &END header")
    header = header_match.group(1)
    norb_match = re.search(r"NORB\s*=\s*(\d+)", header, re.I)
    if not norb_match:
        raise ValidationError(f"{path}: header lacks NORB")
    m = int(norb_match.group(1))
    body = text[header_match.end():]

    h = np.zeros((m, m))
    g = np.zeros((m, m, m, m))
    core = 0.0
    # numbered from the top of the file: the body starts on the terminator's line
    for lineno, line in enumerate(body.splitlines(), start=text.count("\n", 0, header_match.end()) + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValidationError(f"{path}: malformed value line {lineno}: {line!r}")
        try:
            val = float(parts[0])
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed value line {lineno}: {line!r}") from exc
        if not np.isfinite(val):
            raise ValidationError(f"{path}: non-finite value on line {lineno}")
        if any(x < 0 or x > m for x in (i, j, k, l)):
            raise ValidationError(f"{path}: index out of range on line {lineno}")
        if i == 0 and j == 0 and k == 0 and l == 0:
            core = val
        elif k == 0 and l == 0 and i and j:
            h[i - 1, j - 1] = val
            h[j - 1, i - 1] = val
        elif i == 0 or j == 0 or k == 0 or l == 0:
            raise ValidationError(f"{path}: mixed zero/nonzero indices on line {lineno}: {line!r}")
        else:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in (
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ):
                g[p, q, r, s] = val
    return ElectronicIntegrals(
        n_orbitals=m,
        one_body=h,
        two_body_same_spin=g.copy(),
        two_body_opposite_spin=g,
        core_energy=core,
    )
