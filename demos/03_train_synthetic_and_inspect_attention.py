"""Train the downsized model on the synthetic keyword task, then look at
which positions each attention layer weights for a few inputs.

Takes roughly half a minute.
"""

import numpy as np

from panemo.metrics import compute_report, per_class_report, threshold
from panemo.model import forward, predict_scores
from panemo.training import train
from panemo.verify import overfit_harness

dataset, params, config = overfit_harness(seed=1)
params, log = train(dataset, dataset, config, params)
print(f"trained {len(log.epochs)} epochs, final train loss {log.epochs[-1].train_loss:.4f}")

idx, msk = dataset.arrays()
pred = threshold(predict_scores(idx, msk, params), config.threshold)
report = compute_report(pred, dataset.label_matrix())
print(f"training-set Jaccard accuracy: {report.jaccard:.3f}\n")
print(per_class_report(report))

# attention weights: layer 1 (shallow view) vs layer 2 (deeper view)
print("\nper-position attention for three examples (tokens / layer-1 / layer-2):")
_, a1, a2 = forward(idx[:3], msk[:3], params)
for i in range(3):
    print(f"  tokens  {idx[i].tolist()}")
    print(f"  attn-1  {np.round(a1[i], 3).tolist()}")
    print(f"  attn-2  {np.round(a2[i], 3).tolist()}")
