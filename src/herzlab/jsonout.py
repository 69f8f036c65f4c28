"""Strict JSON text for every report the package writes.

RFC 8259 JSON has no Infinity or NaN, so a non-finite float is written
as null; what null means is the field's to say (an ``argmax_eps`` of
null is the eps -> infinity limit, a ``tail_bound`` of null no finite
bound).
"""

from __future__ import annotations

import json
import math
from typing import Any


def json_ready(v: Any) -> Any:
    """v with numpy values as Python ones and non-finite floats as None."""
    if hasattr(v, "tolist"):  # numpy arrays and scalars
        v = v.tolist()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {str(k): json_ready(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [json_ready(x) for x in v]
    return v


def dumps(obj: Any, **kwargs) -> str:
    """JSON text of ``json_ready(obj)``; raises on anything it cannot write."""
    return json.dumps(json_ready(obj), allow_nan=False, **kwargs)
