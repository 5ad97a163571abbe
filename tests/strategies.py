"""Hypothesis strategies for random problem instances, shared by the
property tests."""

from hypothesis import strategies as st

from qaplandscape import GeneralTensor, QapInstance
from conftest import zero_psi

ENTRY = st.integers(min_value=-5, max_value=9)

# Two-decimal values in [-9.99, 9.99]; any float entry puts an instance in
# float mode.
DECIMAL_ENTRY = st.integers(-999, 999).map(lambda v: v / 100)


@st.composite
def qap_instances(draw, min_n=3, max_n=7, entries=ENTRY):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    square = st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )
    return QapInstance(draw(square), draw(square))


@st.composite
def sparse_tensors(draw, min_n=3, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    index = st.integers(min_value=0, max_value=n - 1)
    entries = draw(st.dictionaries(
        st.tuples(index, index, index, index), ENTRY, min_size=1, max_size=12
    ))
    psi = zero_psi(n)
    for (i, j, p, q), v in entries.items():
        psi[i][j][p][q] = v
    return GeneralTensor(psi)
