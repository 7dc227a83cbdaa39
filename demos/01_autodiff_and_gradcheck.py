"""Tour of the tape-based autodiff core.

Builds a tiny expression, backpropagates it, and compares analytic gradients
against central finite differences.
"""

import numpy as np

from panemo import autodiff as ad
from panemo.autodiff import Tape, Tensor, backward

rng = np.random.default_rng(0)

# a small two-layer expression: 0.5 * sum(sigmoid(sigmoid(A @ B + b) @ C)^2)
A = Tensor(rng.uniform(-1, 1, (3, 4)), trainable=True)
B = Tensor(rng.uniform(-1, 1, (4, 2)), trainable=True)
b = Tensor(rng.uniform(-1, 1, 2), trainable=True)
C = Tensor(rng.uniform(-1, 1, (2, 2)), trainable=True)


def f():
    hidden = ad.sigmoid(ad.add(ad.matmul(A, B), b))
    return ad.scale(ad.square_sum(ad.sigmoid(ad.matmul(hidden, C))), 0.5)


with Tape() as tape:
    loss = f()

print(f"loss = {float(loss.data):.6f}, tape recorded {len(tape)} ops")
backward(loss, tape)
print("grad A:\n", A.grad)

# the tape is consumed: a second backward raises
try:
    backward(loss, tape)
except Exception as exc:
    print(f"second backward rejected: {type(exc).__name__}")

# finite-difference verification of the whole expression
for p in (A, B, b, C):
    p.zero_grad()
err = ad.grad_check(f, [A, B, b, C], eps=1e-5)
print(f"max relative error vs finite differences: {err:.2e}")
