//! One module per paper artifact. See `DESIGN.md` §4 for the index.

pub mod ablation;
pub mod fig11_12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig4;
pub mod fig9_10;
pub mod table5;
pub mod table6;
