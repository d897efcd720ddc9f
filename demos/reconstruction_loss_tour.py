"""What the feed-backward reconstruction loss measures, on a toy batch.

A label is mapped back into latent space through the decision layer's own
transpose, and the loss compares the softmax of that reconstruction against
the softmax of the actual latent feature.  Driving it down makes each
latent line up with its class's weight column.
"""
import numpy as np

import weightsep as ws

rng = np.random.default_rng(3)
d, n = 6, 3
w = rng.normal(size=(d, n))
labels = np.array([0, 2])

latent = rng.normal(size=(2, d))
loss, g_latent, g_w = ws.reconstruction_loss(latent, labels, w)
print(f"random latents: loss {loss:.4f}")

# when each latent equals its label's column the two distributions match
aligned = w[:, labels].T.copy()
loss0, _, _ = ws.reconstruction_loss(aligned, labels, w)
print(f"aligned latents: loss {loss0:.2e}")

# the latent gradient points away from alignment: a small step against it
# lowers the loss
stepped = latent - 0.5 * g_latent
loss1, _, _ = ws.reconstruction_loss(stepped, labels, w)
print(f"one gradient step on the latents: {loss:.4f} -> {loss1:.4f}")

# same story for the weight gradient
loss2, _, _ = ws.reconstruction_loss(latent, labels, w - 0.5 * g_w)
print(f"one gradient step on W:           {loss:.4f} -> {loss2:.4f}")

# shifting every latent by a constant changes nothing (softmax invariance)
loss3, _, _ = ws.reconstruction_loss(latent + 40.0, labels, w)
print(f"latents shifted by +40: loss {loss3:.4f} (unchanged)")
