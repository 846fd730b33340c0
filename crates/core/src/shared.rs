//! Typed handles onto shared memory.
//!
//! §3.2: "Allocating from the shared memory is performed via a malloc-like
//! API. The returned pointer ... can then be used in the usual way." The
//! simulation cannot hand out raw pointers (access must be checked the way
//! the MMU would check it), so applications hold [`SharedVec`] /
//! [`SharedCell`] handles — plain `Copy` values wrapping a shared virtual
//! address — and access them through [`HostCtx`](crate::HostCtx) methods.
//! A range access is one copy between the page and the caller's slice
//! (`wire_bytes`, `fill_wire`), never a conversion element by element.

use sim_mem::VAddr;
use std::borrow::Cow;
use std::marker::PhantomData;

mod sealed {
    pub trait Sealed {}
}

/// Element types storable in shared memory: the ten primitive integer and
/// floating-point scalars, and only those (the trait is sealed).
///
/// Shared memory — and every RC diff, golden and host data reply cut from
/// it — holds values little-endian. Every bit pattern is a value and none
/// has padding, so a `[T]` *is* its wire bytes (swapped per element on a
/// big-endian target) and the range accessors copy it whole.
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {
    /// Serialized size in bytes; equals `size_of::<Self>()`.
    const SIZE: usize;

    /// Decodes a value from exactly [`SIZE`](Pod::SIZE) bytes.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != SIZE`.
    fn from_bytes(b: &[u8]) -> Self;

    /// Encodes the value into exactly [`SIZE`](Pod::SIZE) bytes.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != SIZE`.
    fn to_bytes(self, out: &mut [u8]);
}

macro_rules! impl_pod {
    ($($t:ty),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn from_bytes(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("exact size"))
            }

            #[inline]
            fn to_bytes(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_pod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Largest [`Pod`] element size: one element stages in a stack buffer.
pub(crate) const POD_MAX: usize = 8;

/// `vals` as its wire bytes: a view (a swapped copy on a big-endian target).
pub(crate) fn wire_bytes<T: Pod>(vals: &[T]) -> Cow<'_, [u8]> {
    let len = std::mem::size_of_val(vals);
    // SAFETY: the sealed `Pod` scalars have no padding, so all `len` bytes
    // behind the pointer are initialized; `u8` has no alignment
    // requirement; the view borrows `vals`.
    let mut bytes = Cow::Borrowed(unsafe { std::slice::from_raw_parts(vals.as_ptr().cast(), len) });
    if cfg!(target_endian = "big") {
        let elements = bytes.to_mut().chunks_exact_mut(T::SIZE);
        elements.for_each(<[u8]>::reverse);
    }
    bytes
}

/// `len` elements of all-zero bytes, for [`fill_wire`] to overwrite.
/// Not `vec![zero; len]`: a zero fill lowers to `alloc_zeroed`, which
/// glibc serves as `calloc`, outside its per-thread cache — the larger
/// part of a small row's read.
pub(crate) fn zeroed<T: Pod>(len: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(len);
    out.resize(len, T::from_bytes(&[0; POD_MAX][..T::SIZE]));
    out
}

/// Hands `out` to `fill` as its wire bytes, all of which `fill` overwrites.
pub(crate) fn fill_wire<T: Pod>(out: &mut [T], fill: impl FnOnce(&mut [u8])) {
    let len = std::mem::size_of_val(out);
    // SAFETY: `out` borrows `len` initialized bytes (elements of `T::SIZE`
    // = `size_of::<T>()` bytes each) exclusively while the view lives;
    // every bit pattern `fill` can store is a sealed `Pod` scalar.
    let bytes = unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast(), len) };
    fill(bytes);
    if cfg!(target_endian = "big") {
        bytes.chunks_exact_mut(T::SIZE).for_each(<[u8]>::reverse);
    }
}

/// A shared array of `n` elements of `T`, allocated with one `malloc` call
/// (and therefore living in one minipage unless it exceeds a page).
#[derive(Debug)]
pub struct SharedVec<T> {
    base: VAddr,
    len: usize,
    _elem: PhantomData<fn() -> T>,
}

// Manual impls: handles are plain addresses, independent of `T`'s traits.
impl<T> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedVec<T> {}

impl<T: Pod> SharedVec<T> {
    /// Wraps a base address returned by the allocator. Public so hosts
    /// can exchange handles through shared memory as plain addresses
    /// (the DSM equivalent of passing a pointer) and rebuild them on the
    /// receiving side.
    pub fn from_raw(base: VAddr, len: usize) -> Self {
        Self {
            base,
            len,
            _elem: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address (for [`HostCtx::prefetch_vec`](crate::HostCtx::prefetch_vec)).
    pub fn base(&self) -> VAddr {
        self.base
    }

    /// Total bytes covered.
    pub fn byte_len(&self) -> usize {
        self.len * T::SIZE
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn addr_of(&self, i: usize) -> VAddr {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        self.base.add(i * T::SIZE)
    }

    /// Address and byte length of the subrange `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn range_bytes(&self, start: usize, end: usize) -> (VAddr, usize) {
        assert!(start <= end && end <= self.len, "range {start}..{end} bad");
        (self.base.add(start * T::SIZE), (end - start) * T::SIZE)
    }
}

/// A single shared value of `T` (a one-element [`SharedVec`]).
#[derive(Debug)]
pub struct SharedCell<T> {
    addr: VAddr,
    _elem: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedCell<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedCell<T> {}

impl<T: Pod> SharedCell<T> {
    /// Wraps an allocator-provided address. Public for the same
    /// handle-exchange reason as [`SharedVec::from_raw`].
    pub fn from_raw(addr: VAddr) -> Self {
        Self {
            addr,
            _elem: PhantomData,
        }
    }

    /// The cell's address.
    pub fn addr(&self) -> VAddr {
        self.addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut buf = [0u8; 8];
        42.5f64.to_bytes(&mut buf);
        assert_eq!(f64::from_bytes(&buf), 42.5);
        let mut b4 = [0u8; 4];
        (-7i32).to_bytes(&mut b4);
        assert_eq!(i32::from_bytes(&b4), -7);
    }

    #[test]
    fn a_slice_is_its_little_endian_wire_bytes() {
        let xs = [1.5f32, -2.25, 1e10, 0.0];
        let bytes = wire_bytes(&xs);
        let by_element: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(*bytes, by_element);
        let mut back = zeroed::<f32>(4);
        fill_wire(&mut back, |b| b.copy_from_slice(&bytes));
        assert_eq!(back, xs);
        fill_wire(&mut zeroed::<u16>(3), |b| assert_eq!(b, [0; 6]));
        assert!(wire_bytes::<i64>(&[]).is_empty());
    }

    #[test]
    fn shared_vec_addressing() {
        let sv = SharedVec::<f64>::from_raw(VAddr(0x1000), 10);
        assert_eq!(sv.len(), 10);
        assert_eq!(sv.byte_len(), 80);
        assert_eq!(sv.addr_of(0), VAddr(0x1000));
        assert_eq!(sv.addr_of(3), VAddr(0x1018));
        let (a, l) = sv.range_bytes(2, 5);
        assert_eq!(a, VAddr(0x1010));
        assert_eq!(l, 24);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn shared_vec_bounds_checked() {
        let sv = SharedVec::<u32>::from_raw(VAddr(0x1000), 4);
        let _ = sv.addr_of(4);
    }

    #[test]
    fn handles_are_copy() {
        let sv = SharedVec::<u8>::from_raw(VAddr(0x10), 1);
        let sv2 = sv;
        assert_eq!(sv.base(), sv2.base());
        let c = SharedCell::<i64>::from_raw(VAddr(0x20));
        let c2 = c;
        assert_eq!(c.addr(), c2.addr());
    }
}
