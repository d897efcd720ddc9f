"""The headline trend at desk scale: on a 784-64-10 digits classifier
trained with cross entropy plus the reconstruction term, per-epoch
separability falls as accuracy saturates.  Takes ~10 s.
"""
import numpy as np
from scipy.stats import spearmanr

import weightsep as ws

train_ds = ws.synth_digits(per_class=512, seed=11)
test_ds = ws.synth_digits(per_class=100, seed=1_000_014)

config = ws.TrainConfig(
    layer_dims=(784, 64, 10),
    epochs=30,
    seed=1,
    milestones=(15, 25),
    base_lr=0.1,
    weight_decay=0.01,
    use_reconstruction=True,
)

artifact = ws.train(config, train_ds)

# the last step of each epoch, in epoch order
last_step = {rec.epoch: rec for rec in artifact.records}

print("epoch  epsilon   batch acc")
for epoch, rec in last_step.items():
    print(f"{epoch:>5}  {ws.format_epsilon(rec.epsilon)}   "
          f"{rec.train_accuracy:8.3f}")

eps = np.array([rec.epsilon for rec in last_step.values()])
rho = spearmanr(np.arange(len(eps)), eps).statistic
print(f"\nSpearman(epoch, epsilon) = {rho:+.3f}")
print(f"final train accuracy {ws.evaluate_accuracy(artifact.network, train_ds):.3f}")
print(f"final test accuracy {ws.evaluate_accuracy(artifact.network, test_ds):.3f}")
