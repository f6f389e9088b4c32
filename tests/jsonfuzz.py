"""Hypothesis strategies for fuzzing JSON readers: any JSON value, and one
edit of a valid document at any depth."""

import copy

from hypothesis import strategies as st

# Python's json module also writes and reads NaN and Infinity, so floats are
# unrestricted; integers include ones no float64 holds.
numbers = (st.integers(-2, 200) | st.integers() | st.floats()
           | st.sampled_from([2 ** 31, 2 ** 40, 2 ** 64, 10 ** 400, -10 ** 400]))
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8)


@st.composite
def edited(draw, doc):
    """``doc`` with one entry at any depth deleted or set to any JSON value
    (often one of the same kind: a number for a number, a path-like string
    for a string), or now and then any JSON value in its place."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = copy.deepcopy(doc)
    parent = doc
    while True:
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
        child = parent[key]
        if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)) > 0:
            parent = child
            continue
        kind = json_values
        if isinstance(child, (int, float)) and not isinstance(child, bool):
            kind = numbers | kind
        elif isinstance(child, str):
            kind = st.sampled_from(["", ".", "..", "/", "params", "manifest.json"]) | kind
        if draw(st.integers(0, 5)) == 0:
            del parent[key]
        else:
            parent[key] = draw(kind)
        return doc
