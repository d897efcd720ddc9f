"""Train a small classifier on Gaussian blobs and watch the separability
metric alongside accuracy.  Runs in a couple of seconds.

Note the metric climbing after accuracy saturates: with negligible weight
decay, cross entropy keeps inflating the decision-column norms, so the
columns drift away from orthonormality even while classification is
perfect.  ``digits_trend.py`` shows the recipe whose metric comes back
down.  The run is fully determined by (config, seed): run it twice and the
metric log is bit-identical.
"""
import numpy as np

import weightsep as ws


def split(ds, test_per_class):
    """Last ``test_per_class`` samples of each class become the test set."""
    test = np.zeros(len(ds), dtype=bool)
    for c in range(ds.n_classes):
        test[np.flatnonzero(ds.labels == c)[-test_per_class:]] = True

    def take(mask):
        return ws.Dataset(ds.features[mask], ds.labels[mask], ds.n_classes)

    return take(~test), take(test)


full = ws.synth_blobs(n_classes=4, per_class=160, dim=16, spread=0.06, seed=21)
train_ds, test_ds = split(full, test_per_class=40)

config = ws.TrainConfig(
    layer_dims=(16, 24, 4),
    epochs=12,
    seed=2,
    batch_size=32,
    base_lr=0.1,
    milestones=(8,),
    use_reconstruction=True,
)

artifact = ws.train(config, train_ds)

print("epoch   loss    train acc   epsilon")
last_epoch = -1
for rec in artifact.records:
    if rec.epoch != last_epoch:
        last_epoch = rec.epoch
        print(f"{rec.epoch:>5}  {rec.loss_total:6.3f}  {rec.train_accuracy:9.3f}"
              f"   {ws.format_epsilon(rec.epsilon)}")

acc = ws.evaluate_accuracy(artifact.network, test_ds)
print(f"\ntest accuracy {acc:.3f}, "
      f"final epsilon {ws.format_epsilon(artifact.report.epsilon)}")

# how close did each class's mean latent get to its decision column?
print("\nclass   euclidean   cosine distance")
for row in ws.similarity_report(artifact.network, test_ds):
    print(f"{row.class_index:>5}   {row.euclidean:9.3f}   {row.cosine_distance:15.4f}")
