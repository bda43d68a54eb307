#include "mapping/address_mapper.hh"

#include <stdexcept>
#include <utility>

namespace valley {

AddressMapper::AddressMapper(std::string name, AddressLayout layout,
                             BitMatrix bim)
    : name_(std::move(name)), layout_(std::move(layout)),
      matrix_(std::move(bim)), compiled_(matrix_), decoder_(layout_)
{
    if (matrix_.size() != layout_.addrBits)
        throw std::invalid_argument("mapper: BIM size != address bits");
    if (!matrix_.invertible())
        throw std::invalid_argument("mapper: BIM is singular");
}

} // namespace valley
