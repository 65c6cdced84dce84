//! What the bodies' snapshots ([`ckpt::StepBody::save`]) share.

use ckpt::wire::{Dec, DecodeError, Wr};

/// Reads back a constructor argument a body saved ahead of its state; a
/// body built with another value is another program, and refuses.
pub(crate) fn check_arg(
    d: &mut Dec<'_>,
    built: usize,
    what: DecodeError,
) -> Result<(), DecodeError> {
    if d.usize(what)? == built {
        Ok(())
    } else {
        Err(what)
    }
}

/// Writes a body's lazily built array: a tag, then its floats.
pub(crate) fn enc_f64s(w: &mut dyn Wr, v: Option<&[f64]>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            v.iter().for_each(|&x| w.f64(x));
        }
    }
}

/// Reads what [`enc_f64s`] wrote for an array of `len` floats.
pub(crate) fn dec_f64s(
    d: &mut Dec<'_>,
    len: usize,
    what: DecodeError,
) -> Result<Option<Vec<f64>>, DecodeError> {
    match d.u8(what)? {
        0 => Ok(None),
        1 => (0..len)
            .map(|_| d.f64(what))
            .collect::<Result<_, _>>()
            .map(Some),
        _ => Err(what),
    }
}
