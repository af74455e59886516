"""Series output built the first way: Poly text assembled term by term and
JSON through json.dumps(..., indent=2) of nested lists.

Series.to_text, Series.to_json_text and str(Poly) write the same bytes
directly; the tests hold them to these builders.  The display order is
worked out here again, from the exponent tuples, not taken from the
library's sort key.
"""

import json


def sorted_terms(poly):
    """Terms by ascending total degree, then descending u, s, t."""
    return sorted(
        poly.terms(), key=lambda kv: (sum(kv[0]), -kv[0][0], -kv[0][1], -kv[0][2])
    )


def poly_text(poly):
    parts = []
    for exps, value in sorted_terms(poly):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(("u", "s", "t"), exps)
            if e
        )
        negative = value < 0
        mag = -value if negative else value
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts) if parts else "0"


def series_text(series):
    return "\n".join(
        f"z^{n}: {poly_text(p)}" for n, p in enumerate(series.coefficients())
    )


def series_json(series):
    """The dict Series.to_json gives."""
    return {
        "order": series.order,
        "coeffs": [
            [[list(exps), str(value)] for exps, value in sorted_terms(p)]
            for p in series.coefficients()
        ],
    }


def series_json_text(series):
    return json.dumps(series_json(series), indent=2)
