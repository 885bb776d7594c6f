"""The paper-equation reference the recurrence kernel is held to."""

import numpy as np

from repro.nn.tensor import Tensor, where


def reference_unroll(rnn, inputs, mask, cells=None, memory=None,
                     update_memory=False):
    """``Recurrent.forward`` as the equations state it: ``cell.forward``
    op by op on the tape, the padded-step carry two ``where`` nodes."""
    h = c = Tensor(np.zeros((len(inputs), rnn.hidden_size)))
    for t in range(inputs.shape[1]):
        x, valid = Tensor(inputs[:, t]), mask[:, t]
        new = (rnn.cell(x, h, c) if memory is None else
               rnn.cell(x, cells[:, t], h, c, memory, write=update_memory,
                        step_mask=valid))
        h, c = (where(valid[:, None], n, old) for n, old in zip(new, (h, c)))
    return h
