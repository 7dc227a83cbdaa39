"""Tour of the tape-based autodiff core.

Builds a tiny expression, backpropagates it, and compares analytic gradients
against central finite differences with ``grad_check``. The expression is
made of the generic tape ops in ``panemo.verify``, the ones the reference
oracles compose; ``panemo.autodiff`` itself holds only the tape.
"""

import numpy as np

from panemo.autodiff import Tape, Tensor, backward
from panemo.verify import add, grad_check, matmul, mul, mul_const, sigmoid, tensor_sum

rng = np.random.default_rng(0)

# a small two-layer expression: 0.5 * sum(sigmoid(sigmoid(A @ B + b) @ C)^2)
A = Tensor(rng.uniform(-1, 1, (3, 4)), trainable=True)
B = Tensor(rng.uniform(-1, 1, (4, 2)), trainable=True)
b = Tensor(rng.uniform(-1, 1, 2), trainable=True)
C = Tensor(rng.uniform(-1, 1, (2, 2)), trainable=True)


def f():
    hidden = sigmoid(add(matmul(A, B), b))
    out = sigmoid(matmul(hidden, C))
    return mul_const(tensor_sum(mul(out, out)), 0.5)


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
err = grad_check(f, [A, B, b, C])
print(f"max relative error vs finite differences: {err:.2e}")
