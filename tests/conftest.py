import pytest

from panemo import training
from panemo.training import TrainingConfig, train
from panemo.verify import build_downsized, make_synthetic_dataset


@pytest.fixture
def train_scripted(monkeypatch):
    """Runs ``train()`` on 4 synthetic examples, one step per epoch, with
    ``training.evaluate_loss`` (the one dev call of an epoch) returning the
    given dev losses in turn; at most one epoch per loss. Config fields may
    be overridden. Returns the TrainingLog."""

    def run(val_losses, **overrides):
        losses = iter(val_losses)
        monkeypatch.setattr(training, "evaluate_loss", lambda *args: next(losses))
        data = make_synthetic_dataset(4)
        config = TrainingConfig(batch_size=4, max_epochs=len(val_losses), **overrides)
        return train(data, data, config, build_downsized(seed=0))[1]

    return run
