"""Three engine dispatches, one per entry-wise kind; run as ``__main__``."""

from repro import grb

if __name__ == "__main__":
    u = grb.Vector.from_coo([0, 2, 5], [1.0, 2.0, 3.0], 8).set_format("sparse")
    v = grb.Vector.from_coo([2, 5, 7], [4.0, 5.0, 6.0], 8).set_format("sparse")
    grb.ewise_mult(grb.Vector(grb.FP64, 8), u, v, grb.binary.TIMES)
    grb.ewise_add(grb.Vector(grb.FP64, 8), u, v, grb.binary.PLUS)
    grb.select(grb.Vector(grb.FP64, 8), u, "valuegt", 1.5)
