"""store-mutation bad fixture: a rule writes the bitmap's flags itself."""


def mark(st, keys):
    st.present[keys] = True
    return st
