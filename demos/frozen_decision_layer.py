"""Does the geometry of a frozen decision layer matter?

Two networks train with their final weight matrix frozen: one gets
orthonormal columns (QR of a random draw), the other raw uniform [-1, 1]
columns.  Only the layers underneath learn.  The orthonormal arm keeps its
separability at zero by construction; the comparison shows the hidden
layers have an easier time feeding well-spread decision directions.
"""
import weightsep as ws

train_ds = ws.filter_classes(ws.synth_digits(per_class=256, seed=11), (0, 1, 5))
test_ds = ws.filter_classes(ws.synth_digits(per_class=80, seed=900_017), (0, 1, 5))

config = ws.TrainConfig(
    layer_dims=(784, 64, 3),
    epochs=12,
    seed=4,
    milestones=(8,),
    base_lr=0.1,
)

result = ws.experiment_frozen_linearity(train_ds, test_ds, config)

for arm in (result.orthonormal, result.random):
    print(f"{arm.name:>12}: test accuracy {arm.accuracy:.4f}, "
          f"epsilon {ws.format_epsilon(arm.epsilon)} "
          f"(constant across {len(arm.epsilon_steps)} steps: "
          f"{len(set(arm.epsilon_steps)) == 1})")

# 3-D PCA projections of the test latents, one CSV per arm
for arm in (result.orthonormal, result.random):
    path = f"latents_{arm.name}.csv"
    ws.export_pca(arm.latents, arm.labels, path)
    print(f"wrote {path}")
