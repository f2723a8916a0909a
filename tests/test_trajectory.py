"""Three training steps of every solver mode against constants: a pin on what ``train()`` computes.

Each run trains one seeded 8-row batch for 3 epochs, one step each, and is compared with constants
captured from the code as it stood when the test was written. The tolerance, fixed before
measuring, is 1e-10 relative. The mean residual of an implicit step is a cancellation (f(z) - z at
a fixed point), as exact as the iterate it is read at, so it also passes within 1e-13 absolute.
θ and the head are pinned through their displacement d from the initial values, by ||d|| and
||r * d|| for the ramp r = 1, 2, ..., so that a change in any step's gradient shows.

A change that moves these numbers on purpose updates the constants in the same commit and states
the largest relative change per mode; a change that claims no numeric change leaves them alone.
"""
import numpy as np
import pytest

from qdeq.training import TrainConfig, build_from_config, train

from conftest import synthetic_bundle

RTOL, RESIDUAL_ATOL = 1e-10, 1e-13

# (dataset, encoding, solver_mode, jac_loss_weight, warmup_steps) -> losses, mean residuals,
# (||d||, ||r * d||) of theta and of the head's weight and bias
RUNS = {
    ("mnist4", "amplitude", "implicit", 0.0, 0): (
        [1.364128601911441, 1.315609240711489, 1.2458723262189784],
        [7.276859480873461e-08, 9.202407133631367e-08, 2.1823762579191645e-07],
        [0.7864325976813737, 21.759337415872963, 1.0277715604388618, 39.318754658067995],
    ),
    ("mnist4", "amplitude", "implicit", 0.8, 0): (
        [2.760936229023806, 2.453018284993058, 2.219848753200411],
        [7.276859480873461e-08, 4.802355164416086e-07, 1.330439653661932e-07],
        [0.794130397398865, 20.602133193129557, 1.036366347318452, 42.58438915321302],
    ),
    ("mnist4", "amplitude", "implicit_warmup", 0.0, 1): (
        [1.3535184271404384, 1.3131913704476643, 1.2360817160004798],
        [0.3440717556629346, 9.695310111481036e-08, 2.3387790493731477e-07],
        [0.8247064035998795, 22.092287785581767, 1.055562781666147, 40.56581629737753],
    ),
    ("mnist4", "amplitude", "direct_1", 0.0, 0): (
        [1.3535184271404384, 1.302587721211327, 1.2343416111851688],
        [0.3440717556629346, 0.25678753369542934, 0.2638148182175133],
        [0.7417663370268928, 19.958911167692154, 1.0248631750849215, 40.48209880994842],
    ),
    ("mnist4", "amplitude", "direct_5", 0.0, 0): (
        [1.3642715724262189, 1.3156212180869824, 1.2457642169232277],
        [0.00837293706563502, 0.006713819104498212, 0.005721763766542581],
        [0.7883951326057244, 21.815056680982376, 1.0275307776863893, 39.30748517953896],
    ),
    ("mnist4", "angle", "implicit", 0.0, 0): (
        [1.342859999946636, 1.2768287524670843, 1.235509425729642],
        [6.414098931523022e-08, 2.6509595562335033e-08, 3.851333944525405e-08],
        [0.6345363049682656, 17.084843690564213, 1.0209071586304235, 40.15207152203462],
    ),
    ("mnist4", "angle", "implicit", 0.8, 0): (
        [2.248063437716936, 1.957232109424142, 1.847345134617291],
        [6.414098931523022e-08, 5.251101724747897e-07, 5.1749976054580145e-08],
        [0.7724012781317721, 21.41932880258939, 1.0615704472430052, 41.744267622736906],
    ),
    ("mnist4", "angle", "implicit_warmup", 0.0, 1): (
        [1.3488087532742448, 1.282068773964306, 1.2390553719694108],
        [0.21637900610405492, 1.4962785532139238e-08, 2.906573681508636e-08],
        [0.6344105388454492, 16.336001673373303, 0.9918569991904908, 38.34968722083189],
    ),
    ("mnist4", "angle", "direct_1", 0.0, 0): (
        [1.3488087532742448, 1.2875799969782271, 1.2550036067613703],
        [0.21637900610405492, 0.22986573543932035, 0.2856474719637218],
        [0.7464503527614524, 19.751737340815342, 0.977619686216146, 37.666596090153796],
    ),
    ("mnist4", "angle", "direct_5", 0.0, 0): (
        [1.3428822564155096, 1.2765063433391377, 1.2353997978593316],
        [0.0014907200517569837, 0.004854995936631199, 0.007506153647789991],
        [0.6356947469845907, 17.09587006275464, 1.0210129639499386, 40.143363691259445],
    ),
    ("mnist10", "amplitude", "implicit", 0.0, 0): (
        [2.3202973706068755, 2.154675219197337, 1.9423656736531756],
        [8.012391558249623e-08, 1.445767747137621e-07, 9.920796705202905e-08],
        [1.2349924530338172, 146.72497739803566, 3.7569370969014675, 2237.791018545227],
    ),
}


def trajectory(dataset, encoding, solver_mode, jac_loss_weight, warmup_steps):
    """(per-step losses, per-step mean residuals, displacement norms of theta and the head)."""
    n, classes = (16, 4) if dataset == "mnist4" else (100, 10)
    bundle = synthetic_bundle(seed=5, n_train=8, n_val=2, n_test=2, n=n, classes=classes)
    cfg = TrainConfig(dataset=dataset, solver_mode=solver_mode, learning_rate=0.05, encoding=encoding,
                      epochs=3, batch_size=8, warmup_steps=warmup_steps, jac_loss_weight=jac_loss_weight,
                      jac_loss_freq=1.0, seed=11)
    model, head = build_from_config(cfg)
    start = [model.theta.copy(), np.concatenate([head.weight.ravel(), head.bias])]
    metrics, _ = train(bundle, model, head, cfg)
    end = [model.theta, np.concatenate([head.weight.ravel(), head.bias])]
    norms = []
    for a, b in zip(start, end):
        d = b - a
        norms += [np.linalg.norm(d), np.linalg.norm(np.arange(1, d.size + 1) * d)]
    rows = metrics.epochs
    return [r["train_loss"] for r in rows], [r["mean_residual"] for r in rows], norms


@pytest.mark.parametrize("run", list(RUNS), ids=lambda run: "-".join(map(str, run)))
def test_three_steps_match_the_pinned_trajectory(run):
    losses, residuals, norms = trajectory(*run)
    want_losses, want_residuals, want_norms = RUNS[run]
    np.testing.assert_allclose(losses, want_losses, rtol=RTOL, atol=0)
    np.testing.assert_allclose(residuals, want_residuals, rtol=RTOL, atol=RESIDUAL_ATOL)
    np.testing.assert_allclose(norms, want_norms, rtol=RTOL, atol=0)
